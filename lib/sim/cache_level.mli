(** One level of the cache hierarchy.

    The datapath walks an ordered array of levels: a packet is looked up
    level by level, the first hit wins, and a full miss runs the slowpath
    pipeline whose traversal is then offered to every level's install
    policy.  A level is a {!descriptor} — the name, tier, install policy,
    idle budget and cost model the walk reads — over one of the four caches
    of the paper's hierarchy (Fig. 2b), the closed {!backend} variant: the
    exact-match EMC, the single-table Megaflow (hardware- or
    software-flavoured), the cuckoo exact-match tail and the Gigaflow LTM.
    Each operation below is one [match] on the backend; the datapath
    matches on it too where it needs the LTM itself (telemetry handles,
    tag-chain depth). *)

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
          wildcard cache, cuckoo tail). *)
  | Promote_on_hit
      (** Populated by promotion when a {e deeper} level hits (OVS's EMC:
          exact-match entries learned from wildcard-cache hits). *)

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
      (** Host CPU cycles burned per lookup work unit: the classifier
          probe cost for the software Megaflow, 0 for the rest (the NIC
          does the hardware levels' work). *)
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

type backend =
  | Emc of Gf_cache.Microflow.t
      (** OVS's EMC: software tier, one hash probe per lookup, populated
          by promotion from deeper-level hits. *)
  | Megaflow of Gf_cache.Megaflow.t
      (** The single-table wildcard cache.  On the [Hardware] tier hits
          cost the fixed SmartNIC latency; on the [Software] tier they pay
          the classifier search (TSS/NuevoMatch work units). *)
  | Cuckoo of Gf_cache.Cuckoo.t
      (** 2-choice cuckoo exact-match table: software tier, installs the
          collapsed slowpath result on miss — the cheap home for the long
          tail of mice that never earn a hardware slot. *)
  | Ltm of Gf_core.Gigaflow.t * Gf_pipeline.Pipeline.t
      (** The Gigaflow LTM and the pipeline whose entry tag its walks
          start from: hardware tier; installs partition the traversal into
          sub-traversal rules. *)

type t

val descriptor : t -> descriptor
val backend : t -> backend
val name : t -> string
val tier : t -> tier

val lookup : t -> now:float -> Gf_flow.Flow.t -> Gf_cache.Hit.t option * int
(** Result and lookup work units (spent whether or not it hit). *)

val lookup_memo :
  t -> now:float -> flow_id:int -> Gf_flow.Flow.t -> Gf_cache.Hit.t option * int
(** Observably identical to [lookup], through this level's per-flow memo
    (the batched engine's replay; see {!Datapath.process_memo}).  The
    caches keep no per-flow state: on the Megaflow and the LTM the level
    keeps, per flow id, the last lookup's hit and the backend's replay of
    it ({!Gf_cache.Megaflow.lookup_replay},
    {!Gf_core.Ltm_cache.lookup_replay}).  A repeat flow runs the replay
    and, once it is stale, refills the memo from a fresh lookup.
    Exact-match levels are already one probe and just look up.  Requires
    that a given [flow_id] is always presented with the same flow value. *)

val last_hit_replay : t -> (now:float -> int) option
(** The replay the latest {!lookup_memo} ran or refilled, if that lookup
    hit: a closure applying just that hit's per-packet effects and
    returning its work, re-validating on every call — -1 once stale.
    [None] after a miss and before any memoised lookup; exact-match levels
    never set it.  No flow-id probe. *)

val install_from_traversal :
  t -> now:float -> version:int -> Gf_pipeline.Traversal.t -> install_report
(** Offer a slowpath traversal per the level's {!install_policy} (the EMC
    reports no install): the backend's {!Gf_cache.Install.t} as counts,
    plus the LTM's partition and rule-generation work. *)

val promote : t -> now:float -> Gf_flow.Flow.t -> Gf_cache.Hit.t -> Gf_cache.Install.t
(** Learn from a hit at a deeper level: the exact-match level's own
    install outcome — [Rejected] when it is full under [Reject] — or, on
    the Megaflow and the LTM, a no-op [Installed] with every count 0. *)

val expire : t -> now:float -> int
(** Evict entries idle longer than the descriptor's [max_idle]. *)

val demote : t -> is_hot:(Gf_flow.Flow.t -> bool) -> int
(** Admission re-partition sweep: on a Megaflow level, evict entries whose
    representative flows fail [is_hot], freeing slots for the current
    heavy hitters ({!Gf_cache.Megaflow.demote}).  Every other level
    returns 0: exact-match entries age out via [expire], and the LTM has
    no demotion (a rule shared by several traversals has no single
    representative flow to test). *)

val revalidate : t -> Gf_pipeline.Pipeline.t -> int * int
(** Re-check entries against a (possibly updated) pipeline; returns
    [(evicted, work)].  Exact-match levels flush (their entries carry no
    dependency information). *)

val occupancy : t -> int
val capacity : t -> int

val evict_policy : t -> Gf_cache.Evict.policy
(** Current replacement policy (the LTM reads it from its config). *)

val set_evict : t -> Gf_cache.Evict.policy -> unit
(** Swap the replacement policy online; applies from the next install.
    The control loop's per-level actuation. *)

val set_capacity : t -> int -> unit
(** Retune the admission bound online.  The cuckoo clamps to its slot
    geometry ({!Gf_cache.Cuckoo.slots}); the LTM's geometry (table count,
    per-table SRAM) is fixed at build time, so it ignores this. *)

val last_depth : t -> int
(** Tag-chain steps matched by this level's most recent lookup: the
    sub-traversal reuse depth for the LTM (non-zero on a miss means the
    chain matched a prefix then dead-ended — a stall); unchained levels
    report 0.  Read to resolve miss causes and for tracer spans. *)

(** {1 Specs — declarative hierarchy descriptions} *)

(** A buildable description of one level.  [max_idle = None] takes the
    hierarchy default ({!Datapath.config.max_idle}; the software wildcard
    cache and the cuckoo tail default to 4x it, preserving OVS's
    longer-lived software entries).  [evict = None] takes the level's
    historical default replacement policy: [Lru] for the exact-match
    levels, [Reject] for the Megaflows.  The Gigaflow LTM carries its
    policy inside its config. *)
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
(** Instantiate a fresh cache for [spec] with its descriptor.  [name]
    overrides {!spec_name} (hierarchies with duplicate level kinds must
    deduplicate names). *)
