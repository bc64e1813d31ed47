(** The end-to-end datapath simulator: a generic walker over an ordered
    cache hierarchy (paper Fig. 2b / Fig. 5a).

    A packet is looked up level by level ({!Cache_level.t}, walk order);
    the first hit wins and misses fall through.  A full miss runs the
    userspace pipeline once and offers the traversal to every level's
    install policy.  Hits at deeper levels promote into shallower
    [Promote_on_hit] levels (OVS's EMC).  Idle entries expire on a
    periodic per-level sweep.

    SmartNIC Megaflow, Gigaflow LTM, EMC, software wildcard cache and
    cuckoo tail are all {!Cache_level.t} values, so hierarchies are
    composed declaratively ({!config.levels}) and selected by name
    ({!preset}).  The walk reads each level's descriptor and matches on
    its backend only to reach the LTM (telemetry handles, tag-chain
    depth). *)

type config = {
  name : string;  (** Hierarchy name (preset key, metrics label). *)
  levels : Cache_level.spec list;
      (** Walk order: shallowest (consulted first) to deepest.  NIC-tier
          levels come first — packets traverse the SmartNIC before any
          host software runs. *)
  max_idle : float;
      (** Default idle eviction budget, seconds.  Levels may override via
          their spec; the software wildcard cache defaults to 4x this. *)
  expire_every : float;  (** Period of the eviction sweep, seconds. *)
  admission : Gf_offload.Heavy_hitter.policy;
      (** [Admit_all] (every preset's default except the [*_hh] hybrids)
          keeps the historical behaviour: every slowpath traversal is
          offered to every level.  [Heavy_hitter _] gates hardware-tier
          installs on a space-saving top-K sketch: cold flows are deferred
          to the software tier, flows that get hot there are promoted to
          hardware off the packet path, and a re-partition sweep
          (piggybacked on the eviction sweep) demotes entries whose flows
          went cold. *)
}

(** {1 Preset hierarchies}

    Names read host-hierarchy-style (EMC, then wildcard levels); the walk
    order always puts the NIC-resident level first.  Each preset idles
    entries out after 10 s on a 1 s sweep, and takes only its hardware
    geometry as an argument; every other knob is a combinator ({!with_policy},
    {!with_max_idle}, {!with_admission}, ...) or a record update. *)

val emc_mf_sw : ?mf_capacity:int -> unit -> config
(** The paper's baseline: SmartNIC Megaflow offload (32K entries) in front
    of OVS's EMC + software wildcard cache. *)

val emc_gf_sw : ?gf:Gf_core.Config.t -> unit -> config
(** The paper's headline configuration: Gigaflow LTM (4 tables x 8K) in
    front of the EMC + software wildcard cache. *)

val mf_sw : ?mf_capacity:int -> unit -> config
(** Megaflow offload without an EMC. *)

val gf_sw : ?gf:Gf_core.Config.t -> unit -> config
(** Gigaflow + software wildcard cache, no EMC (the paper's Fig. 2b
    hybrid). *)

val mf_sw_hh : ?mf_capacity:int -> unit -> config
(** Skew-aware Megaflow hybrid: hardware Megaflow under heavy-hitter
    admission, cuckoo exact-match software table for the long tail. *)

val gf_sw_hh : ?gf:Gf_core.Config.t -> unit -> config
(** Skew-aware Gigaflow hybrid: Gigaflow LTM under heavy-hitter admission,
    cuckoo exact-match software table for the long tail. *)

val gf_only : ?gf:Gf_core.Config.t -> unit -> config
(** Gigaflow with no software levels: every LTM miss is a slowpath. *)

val mf_only : ?mf_capacity:int -> unit -> config
(** SmartNIC Megaflow alone. *)

val preset_names : string list

val preset : ?gf:Gf_core.Config.t -> ?mf_capacity:int -> string -> config option
(** Look a preset up by name (see {!preset_names}); [gf] and
    [mf_capacity] override its cache geometry where they apply.  Every
    other knob is a combinator applied to the result ({!with_policy},
    {!with_max_idle}, {!with_sw_search}, {!with_admission}, ...). *)

(** {1 Config combinators} *)

val without_software : config -> config
(** Drop every software-tier level (Fig. 18's no-software ablation). *)

val with_sw_search : Gf_classifier.Searcher.algo -> config -> config
(** Swap the software wildcard cache's search algorithm (Fig. 17 axis). *)

val with_max_idle : float -> config -> config

val with_admission : Gf_offload.Heavy_hitter.policy -> config -> config
(** Override the hierarchy's hardware admission policy. *)

val with_sw_level : [ `Cuckoo | `Megaflow ] -> config -> config
(** Swap the software cache flavour: the wildcard Megaflow (classifier
    search) vs the cuckoo exact-match table (two probes per lookup).
    Capacity, idle budget and eviction override carry over; the Megaflow
    flavour comes back with TSS search. *)

val with_policy : Gf_cache.Evict.policy -> config -> config
(** Apply one replacement policy to every level (the Gigaflow LTM's
    embedded config included). *)

val with_level_policy : level:string -> Gf_cache.Evict.policy -> config -> config
(** Apply a replacement policy to the level whose metrics name is
    [level] ("emc", "nic-mf", "sw-mf", "gf", with "#2" suffixes for
    duplicated kinds — the same names {!Metrics.levels} reports).
    Unknown names leave the config unchanged. *)

val hw_capacity : config -> int
(** Total SmartNIC-resident entry capacity of the hierarchy. *)

(** {1 Datapath} *)

type t

val create : ?telemetry:Gf_telemetry.Telemetry.t -> config -> Gf_pipeline.Pipeline.t -> t
(** [telemetry] (default [None]) attaches the observability sink.  The
    per-level counters and latency histograms live in {!Metrics} either
    way; telemetry adds the flight recorder, which each emission site
    offers its event to inline (sampling happens in
    {!Gf_telemetry.Recorder.record}), the time series the sampler builds
    from {!Metrics} ({!maybe_sample}, {!finalize}) and, when
    [trace_sample_every > 0], the traversal tracer.  Any Gigaflow level
    registers its install-path counters in the registry.  Without it
    every emission site is a no-op pattern match — the hot path stays
    allocation-free. *)

val heavy_hitter : t -> Gf_offload.Heavy_hitter.t option
(** The live admission sketch ([None] under [Admit_all]) — diagnostics
    (top-K reporting) only; the datapath owns its mutation. *)

val config : t -> config
(** The live configuration — reflects any online actuation made through
    {!set_admission} / {!set_evict_policy} since {!create}. *)

val pipeline : t -> Gf_pipeline.Pipeline.t

val levels : t -> Cache_level.t list
(** The instantiated hierarchy, walk order. *)

(** {1 Online control knobs}

    Actuation points for an adaptive controller (see [Gf_control]).  All
    of them are deterministic state transitions on the datapath — no RNG,
    no wall clock — so a controller driven at a deterministic cadence
    preserves the engine==sequential replay guarantees. *)

val level_names : t -> string array
(** Metric names of the instantiated levels, walk order (deduplicated:
    "sw-mf", "sw-mf#2", ...) — the [~level] keys below. *)

val set_admission : t -> Gf_offload.Heavy_hitter.policy -> unit
(** Retune hardware admission online.  Changing [k] {e retargets} the
    live sketch in place — tracked flows, counts and error bounds carry
    over (see {!Gf_offload.Heavy_hitter.retarget}) — and changing
    [threshold] is a field write, so the learned hot set survives the
    actuation.  Switching to [Admit_all] drops the sketch; switching back
    starts a fresh one. *)

val set_evict_policy : t -> level:string -> Gf_cache.Evict.policy -> unit
(** Swap one level's replacement policy online (applies from the next
    install).  Raises [Invalid_argument] on an unknown level name. *)

val set_level_capacity : t -> level:string -> int -> unit
(** Retune one level's admission bound online.  The cuckoo clamps to its
    slot geometry; hardware geometry is fixed, so
    hardware levels ignore it.  Shrinking does not evict residents — the
    bound bites on the next install.  Raises [Invalid_argument] on an
    unknown level name. *)

val evict_policy : t -> level:string -> Gf_cache.Evict.policy
(** The level's current replacement policy.  Raises [Invalid_argument] on
    an unknown level name. *)

val gigaflow : t -> Gf_core.Gigaflow.t option
(** The first Gigaflow level's instance, if the hierarchy has one. *)

val hw_occupancy : t -> int
(** Entries currently resident across all hardware-tier levels. *)

type outcome = Hw_hit | Sw_hit | Slowpath

val process :
  ?flow_id:int ->
  t ->
  now:float ->
  Gf_flow.Flow.t ->
  outcome * Gf_pipeline.Action.terminal option * float
(** Handle one packet with the per-packet walker: returns the path taken,
    the forwarding decision ([None] if the slowpath failed, e.g. a
    pipeline loop) and the modelled latency in microseconds.  Updates
    metrics, including the per-level breakdown ({!Metrics.levels}).
    [flow_id] (default [-1], unknown) only feeds the per-flow miss-cause
    attribution ({!Metrics.record_miss}; an unknown flow's misses are
    [Cold]) — it never affects the forwarding result.
    This is the same hierarchy walk {!process_memo} runs, with the
    per-flow memo off: no memo tables are filled. *)

val process_memo :
  t ->
  now:float ->
  flow_id:int ->
  Gf_flow.Flow.t ->
  outcome * Gf_pipeline.Action.terminal option * float
(** The batched engine's walker: observably identical to {!process} — same
    counters, same latency accumulation and histograms, same telemetry
    events, same occupancy peaks — but amortised for repeat flows.  It is
    the same hierarchy walk with the per-flow memo on: level lookups go
    through each level's per-flow memo ({!Cache_level.lookup_memo}),
    which replays the stored result and its touch side effects while the
    backend's validity rule holds, and a repeat hardware hit at the top
    level replays a compiled constant effect.  Slowpaths and promotions
    run the pipeline afresh, as {!process}'s do.  Requires that a given
    [flow_id] is always presented with the same flow value (true of every
    {!Gf_workload.Trace} generator).  Every memo is keyed by [flow_id], so
    a negative (unknown) [flow_id] disengages them all: the packet takes
    exactly {!process}'s memo-off walk and fills no memo table. *)

val revalidate : t -> now:float -> int * int
(** Sweep every level against the (possibly updated) pipeline at trace
    time [now]; returns total [(evicted, work)].  Per-level evictions are
    recorded in metrics, and each level's [Revalidate] event carries
    [now].  Also drops the compiled top-level replays ({!process_memo}),
    and from here on a flow installed before the sweep misses with cause
    [Revalidation] until it is installed again. *)

val maybe_sample : t -> time:float -> unit
(** The sampler tick: if a time-series sample is due at the current
    packet count ({!Gf_telemetry.Telemetry.sample_due}), push a sample
    at [time] built from the live metrics and level occupancies, so it
    agrees with {!Metrics} exactly.  The batched engine calls this once
    per batch; cadence cannot change the final telemetry — counters,
    histograms and recorded events are all written inline by the packet
    path, so only the series length depends on it.  A no-op without
    telemetry. *)

val finalize : t -> time:float -> Metrics.t
(** End-of-run epilogue (called by {!run}; the batched engine calls it
    directly after draining): records final occupancies, flushes one
    unconditional telemetry sample at [time] plus a full counter export,
    and returns the metrics. *)

val run :
  ?on_packet:(Gf_workload.Trace.packet -> outcome -> float -> unit) ->
  ?miss_sink:(flow_id:int -> cycles:int -> unit) ->
  t ->
  Gf_workload.Trace.t ->
  Metrics.t
(** Replay a trace.  [on_packet] observes every packet (Fig. 18 timelines);
    [miss_sink] observes slowpath CPU work per flow (Fig. 19 RSS scaling).
    With telemetry attached, pushes a sample every [sample_every] packets
    plus a final unconditional sample, then exports the final counters to
    the registry ({!Metrics.to_registry}). *)

val metrics : t -> Metrics.t
