(** A pluggable cache-hierarchy level.

    The datapath is a generic walker over an ordered list of levels: a
    packet is looked up level by level, the first hit wins, and a full miss
    runs the slowpath pipeline whose traversal is then offered to every
    level's install policy.  Each concrete cache — the exact-match
    Microflow/EMC, the single-table Megaflow (hardware- or
    software-flavoured) and the Gigaflow LTM — is wrapped in a first-class
    module implementing {!LEVEL}, so hierarchies are composed, swept and
    replicated without the datapath knowing any backend concretely. *)

type tier =
  | Hardware  (** Lives in the SmartNIC: hits never reach host software. *)
  | Software
      (** Host-side level: reaching it costs the PCIe upcall and the fixed
          software forwarding overhead. *)

val tier_name : tier -> string
(** Stable lowercase label ("hardware" / "software") used by telemetry
    series and exporter label values. *)

type install_policy =
  | Install_on_miss
      (** The slowpath traversal is installed here (NIC caches, software
          wildcard cache). *)
  | Promote_on_hit
      (** Populated by promotion when a {e deeper} level hits (OVS's EMC:
          exact-match entries learned from wildcard-cache hits). *)
  | Never_install  (** Read-only / externally managed. *)

type descriptor = {
  name : string;  (** Metrics key; unique within a hierarchy. *)
  tier : tier;
  policy : install_policy;
  max_idle : float;  (** Idle-eviction budget of this level, seconds. *)
  hit_us : work:int -> float;
      (** Modelled hit latency from lookup work units.  For [Hardware]
          levels this is the end-to-end figure; for [Software] levels it is
          added on top of the upcall + software base cost. *)
  cycles_per_work : int;
      (** Host CPU cycles burned per lookup work unit (0 for hardware
          levels — the NIC does the work). *)
}

type hit = {
  terminal : Gf_pipeline.Action.terminal;
  out_flow : Gf_flow.Flow.t;
}

type install_report = {
  fresh : int;  (** New entries written. *)
  shared : int;  (** Segments satisfied by existing identical entries. *)
  rejected : int;  (** Installations refused (level full / infeasible). *)
  pressure_evicted : int;
      (** Entries evicted under capacity pressure to admit this install
          (0 unless the level runs an evicting replacement policy). *)
  partition_work : int;  (** Partitioner DP operations spent installing. *)
  rulegen_work : int;  (** Rules generated. *)
}

val no_install : install_report
(** The all-zero report (levels that do not install from traversals). *)

(** Diagnostic access to the wrapped cache (occupancy sampling, coverage
    counting); never used for datapath dispatch. *)
type view =
  | Microflow_view of Gf_cache.Microflow.t
  | Megaflow_view of Gf_cache.Megaflow.t
  | Gigaflow_view of Gf_core.Gigaflow.t
  | Cuckoo_view of Gf_cache.Cuckoo.t

module type LEVEL = sig
  val descriptor : descriptor
  val view : view

  val lookup : now:float -> Gf_flow.Flow.t -> hit option * int
  (** Result and lookup work units (spent whether or not it hit). *)

  val lookup_memo : now:float -> flow_id:int -> Gf_flow.Flow.t -> hit option * int
  (** Observably identical to [lookup], but backends that support it
      replay memoised per-flow results while their entry set is unchanged
      (the batched engine's sub-traversal replay; see
      {!Datapath.process_memo}).  Requires that a given [flow_id] is
      always presented with the same flow value. *)

  val prepare_replay : flow_id:int -> (now:float -> int option) option
  (** Compiled per-flow hit replay: after [lookup_memo] returned a hit
      for [flow_id], a closure applying just that hit's per-packet side
      effects and returning its work, re-validating on every call —
      [None] once the memo is stale.  Levels without a per-flow memo (the
      EMC) return [None] outright.  See {!Megaflow.prepare_replay}. *)

  val install_from_traversal :
    now:float -> version:int -> Gf_pipeline.Traversal.t -> install_report
  (** Offer a slowpath traversal per the level's {!install_policy}. *)

  val promote : now:float -> Gf_flow.Flow.t -> hit -> int
  (** Learn from a hit at a deeper level ([Promote_on_hit] levels only;
      a no-op returning 0 elsewhere).  Returns the number of entries
      evicted under capacity pressure to admit the promoted entry. *)

  val expire : now:float -> int
  (** Evict entries idle longer than the descriptor's [max_idle]. *)

  val demote : is_hot:(Gf_flow.Flow.t -> bool) -> int
  (** Admission re-partition sweep: evict entries whose representative
      flows fail [is_hot], freeing slots for the current heavy hitters.
      Only meaningful for hardware tiers; exact-match software levels
      return 0 (their entries age out via [expire]).  See
      {!Gf_cache.Megaflow.demote} / {!Gf_core.Ltm_cache.demote}. *)

  val revalidate : Gf_pipeline.Pipeline.t -> int * int
  (** Re-check entries against a (possibly updated) pipeline; returns
      [(evicted, work)].  Exact-match levels flush (their entries carry no
      dependency information). *)

  val occupancy : unit -> int
  val capacity : unit -> int

  val evict_policy : unit -> Gf_cache.Evict.policy
  (** Current replacement policy (the LTM reads it from its config). *)

  val set_evict : Gf_cache.Evict.policy -> unit
  (** Swap the replacement policy online; applies from the next install.
      The control loop's per-level actuation. *)

  val set_capacity : int -> unit
  (** Retune the admission bound online.  Software levels clamp to their
      physical storage where relevant; hardware geometry (the LTM's MAT
      shape, SRAM) is fixed at build time, so hardware levels ignore it. *)

  val stats : unit -> Gf_cache.Cache_stats.t

  val last_depth : unit -> int
  (** Tag-chain steps matched by this level's most recent lookup: the
      sub-traversal reuse depth for the LTM (non-zero on a miss means the
      chain matched a prefix then dead-ended — a stall); unchained levels
      report 0.  Read to resolve miss causes and for tracer spans. *)
end

type t = (module LEVEL)

(** {1 Accessors} *)

val descriptor : t -> descriptor
val name : t -> string
val tier : t -> tier
val view : t -> view
val lookup : t -> now:float -> Gf_flow.Flow.t -> hit option * int
val lookup_memo : t -> now:float -> flow_id:int -> Gf_flow.Flow.t -> hit option * int
val prepare_replay : t -> flow_id:int -> (now:float -> int option) option

val install_from_traversal :
  t -> now:float -> version:int -> Gf_pipeline.Traversal.t -> install_report

val promote : t -> now:float -> Gf_flow.Flow.t -> hit -> int
val expire : t -> now:float -> int
val demote : t -> is_hot:(Gf_flow.Flow.t -> bool) -> int
val revalidate : t -> Gf_pipeline.Pipeline.t -> int * int
val occupancy : t -> int
val capacity : t -> int
val evict_policy : t -> Gf_cache.Evict.policy
val set_evict : t -> Gf_cache.Evict.policy -> unit
val set_capacity : t -> int -> unit
val stats : t -> Gf_cache.Cache_stats.t
val last_depth : t -> int

(** {1 Adapters} *)

val of_microflow : ?name:string -> max_idle:float -> Gf_cache.Microflow.t -> t
(** OVS's EMC: software tier, one hash probe per lookup, populated by
    promotion from deeper-level hits. *)

val of_cuckoo : ?name:string -> max_idle:float -> Gf_cache.Cuckoo.t -> t
(** 2-choice cuckoo exact-match table: software tier, installs the
    collapsed slowpath result on miss — the cheap home for the long tail
    of mice that never earn a hardware slot. *)

val of_megaflow :
  ?name:string -> tier:tier -> max_idle:float -> Gf_cache.Megaflow.t -> t
(** The single-table wildcard cache.  [tier] selects the latency flavour:
    [Hardware] hits at the fixed SmartNIC latency, [Software] pays the
    classifier search (TSS/NuevoMatch work units). *)

val of_gigaflow :
  ?name:string -> pipeline:Gf_pipeline.Pipeline.t -> Gf_core.Gigaflow.t -> t
(** The Gigaflow LTM: hardware tier; installs partition the traversal into
    sub-traversal rules (idle budget comes from the Gigaflow config). *)

(** {1 Specs — declarative hierarchy descriptions} *)

(** A buildable description of one level.  [max_idle = None] takes the
    hierarchy default ({!Datapath.config.max_idle}; the software wildcard
    cache defaults to 4x it, preserving OVS's longer-lived software
    entries).  [evict = None] takes the level's historical default
    replacement policy: [Lru] for the EMC, [Reject] for the Megaflows.
    The Gigaflow LTM carries its policy inside its config. *)
type spec =
  | Emc of {
      capacity : int;
      max_idle : float option;
      evict : Gf_cache.Evict.policy option;
    }
  | Nic_megaflow of {
      capacity : int;
      max_idle : float option;
      evict : Gf_cache.Evict.policy option;
    }
  | Sw_megaflow of {
      search : Gf_classifier.Searcher.algo;
      capacity : int;
      max_idle : float option;
      evict : Gf_cache.Evict.policy option;
    }
  | Sw_cuckoo of {
      capacity : int;
      max_idle : float option;
      evict : Gf_cache.Evict.policy option;
    }
  | Gf_ltm of { gf : Gf_core.Config.t; max_idle : float option }

val spec_with_evict : spec -> Gf_cache.Evict.policy -> spec
(** The spec with its replacement policy overridden (for [Gf_ltm] the
    policy is written into the embedded Gigaflow config). *)

val spec_evict : spec -> Gf_cache.Evict.policy
(** The policy [build] will use: the explicit override if set, else the
    level's historical default. *)

val spec_name : spec -> string
(** Default metrics key: "emc", "nic-mf", "sw-mf", "sw-ck", "gf". *)

val spec_tier : spec -> tier
val spec_capacity : spec -> int

val build :
  ?name:string ->
  default_max_idle:float ->
  pipeline:Gf_pipeline.Pipeline.t ->
  spec ->
  t
(** Instantiate a fresh cache for [spec] and wrap it.  [name] overrides
    {!spec_name} (hierarchies with duplicate level kinds must deduplicate
    names). *)
