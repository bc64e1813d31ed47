(** Per-run measurement record produced by {!Datapath.run}. *)

(** Why a level missed, resolved where the miss is counted so every miss
    maps to exactly one cause. *)
type cause =
  | Cold  (** flow never installed at this level (or unknown flow id) *)
  | Deferred_admission  (** heavy-hitter admission kept/demoted it cold *)
  | Pressure_evicted  (** install rejected or entry pressure-evicted *)
  | Expired  (** flow idle past the level's max-idle window *)
  | Revalidation  (** rule-update revalidation dropped the entry *)
  | Tag_chain_stall  (** LTM matched a chain prefix that dead-ended *)

(** Per-cache-level counters, keyed by the level's name and kept in walk
    order.  [hits + misses] is how often the level was consulted (deeper
    levels only see packets every shallower level missed). *)
type level = {
  level_name : string;
  mutable hits : int;
  mutable misses : int;  (** consulted but missed *)
  miss_causes : int array;
      (** misses by cause, in {!cause} declaration order; sums to
          [misses].  Bump both through {!record_miss}. *)
  mutable installs : int;  (** fresh entries written *)
  mutable shared : int;  (** installs satisfied by existing entries *)
  mutable rejected : int;  (** installs refused (full / infeasible) *)
  mutable evictions : int;
      (** idle-expiry + admission-demotion + revalidation evictions *)
  mutable pressure_evictions : int;
      (** entries evicted to admit an install at capacity (replacement
          policy), counted separately from [evictions] *)
  mutable deferred : int;
      (** hardware installs withheld by the admission policy (flow not yet
          hot enough for a slot) *)
  mutable demotions : int;
      (** entries evicted by the admission re-partition sweep (flow went
          cold); also included in [evictions] *)
  mutable promotions : int;
      (** promote-on-hit learns at this level (the EMC taking a deeper
          level's hit) *)
  mutable revalidations : int;
      (** entries evicted by a revalidation sweep; also included in
          [evictions] *)
  mutable work : int;  (** lookup work units spent at this level *)
  mutable occupancy_peak : int;
  mutable occupancy_final : int;
  latency_hist : Gf_telemetry.Histogram.t;
      (** Per-hit latency distribution at this level.  Always on: recording
          is allocation-free, and it is what gives {!pp_levels} and the
          telemetry sampler per-level p50/p99.  The level's total hit
          latency is [Histogram.sum latency_hist]. *)
}

type t = {
  mutable packets : int;
  mutable hw_hits : int;  (** served entirely by a hardware-tier level *)
  mutable sw_hits : int;  (** NIC miss, software-tier level hit *)
  mutable slowpaths : int;  (** full userspace pipeline executions *)
  mutable drops : int;  (** packets whose decision was Drop *)
  mutable hw_installs : int;
  mutable hw_shared : int;  (** Gigaflow: segments reusing an existing entry *)
  mutable hw_rejected : int;
  mutable hw_evictions : int;
  mutable hw_pressure_evictions : int;
      (** hardware-tier capacity-pressure evictions (see level
          [pressure_evictions]) *)
  mutable hw_deferred : int;
      (** hardware-tier installs withheld by the admission policy *)
  mutable hw_demotions : int;
      (** hardware-tier admission-sweep demotions (also in [hw_evictions]) *)
  latency : Gf_util.Stats.Acc.t;  (** per-packet end-to-end latency, us *)
  mutable cycles_userspace : int;
  mutable cycles_partition : int;
  mutable cycles_rulegen : int;
  mutable cycles_sw_search : int;
  mutable hw_entries_peak : int;
  mutable hw_entries_final : int;
  latency_hist : Gf_telemetry.Histogram.t;
      (** End-to-end per-packet latency distribution (same samples as
          [latency], but bucketed for quantiles and exact merging). *)
  mutable levels : level list;
      (** Per-level breakdown, walk order.  The [hw_*] fields above remain
          the hardware-tier aggregate view of the same events. *)
}

val create : unit -> t

val level : t -> string -> level
(** Find the level record named [name], creating (and appending) it if
    absent — the datapath registers its hierarchy this way. *)

val find_level : t -> string -> level option
val levels : t -> level list

val record_miss : level -> cause -> unit
(** Count one miss at the level and charge it to [cause]. *)

val cause_misses : level -> cause -> int

val miss_causes : t -> (string * string * int) list
(** Non-zero [(level, cause name, count)] rows, walk order then {!cause}
    declaration order.  Their counts sum to the levels' misses. *)

val level_hit_rate : level -> float
(** hits / (hits + misses): the hit rate among packets that reached this
    level ([0.0] if never consulted). *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters and cycle totals add, latency
    accumulators merge exactly (Chan's pairwise update), occupancy figures
    sum (per-domain caches are disjoint, so the aggregate footprint is the
    sum; peaks are summed pessimistically), and per-level counters merge by
    level name.  [src] is unchanged. *)

val aggregate : t list -> t
(** Fresh metrics equal to merging the whole list (parallel replay's
    cross-shard aggregate). *)

val hw_hit_rate : t -> float
(** [0.0] on a zero-packet run (never nan — downstream JSON and telemetry
    samplers want finite numbers). *)

val hw_miss_count : t -> int
(** Packets that missed every hardware-tier level (sw hits + slowpaths). *)

val total_cycles : t -> int

val mean_latency_us : t -> float
(** [0.0] when no latency samples were recorded. *)

val overhead_ratio : t -> float
(** (partition + rulegen) / userspace cycles — the paper's Fig. 13
    metric.  [0.0] when no userspace cycles were spent. *)

val pp : Format.formatter -> t -> unit

val pp_levels : Format.formatter -> t -> unit
(** One aligned row per level: hits/misses/hit-rate/installs/evictions/
    work/occupancy plus p50/p99 hit latency from the per-level
    histograms. *)

val to_registry : t -> Gf_telemetry.Registry.t -> unit
(** Export every counter into the registry under stable
    [gigaflow_*]/[gigaflow_level_*] Prometheus-style names (per-level
    series carry a [level] label; latency histograms are registered
    in-place), followed by the per-level counters once more as
    [gigaflow_events_total{kind,level}] in the flight recorder's kind
    vocabulary ([evict] there is idle expiry only: [evictions - demotions
    - revalidations]), then the non-zero miss causes as
    [gigaflow_profile_miss_cause_total{level,cause}].  Values are {e set}, not accumulated, so
    re-exporting the same metrics is idempotent. *)
