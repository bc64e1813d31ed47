(** Facade tying the Gigaflow pieces together: miss handling runs the
    slowpath pipeline, partitions the traversal, generates LTM rules and
    installs them — the full workflow of the paper's Fig. 5a.

    The facade also accounts the slowpath work performed (pipeline lookups,
    partitioning, rule generation), which feeds the CPU and latency models
    (paper Figs. 12 and 13). *)

type slowpath_work = {
  pipeline_lookups : int;  (** Tables traversed in the slowpath. *)
  tuple_probes : int;  (** TSS tuples probed across those lookups. *)
  partition_work : int;
      (** Segment-score evaluations performed by the partitioner (the
          O(N^2 K) DP loop count; 0 for schemes without search). *)
  rulegen_work : int;  (** Rules generated (each O(#fields)). *)
}

type miss_outcome = {
  traversal : Gf_pipeline.Traversal.t;
  install : Gf_cache.Install.t;
  segments : Partitioner.segment list;
  work : slowpath_work;
}

type t

val create : ?rng_seed:int -> Config.t -> t
(** [rng_seed] only matters for the [Random] partitioning scheme. *)

val cache : t -> Ltm_cache.t
val config : t -> Config.t

val set_policy : t -> Gf_cache.Evict.policy -> unit
(** Swap the LTM replacement policy online (forwards to
    {!Ltm_cache.set_policy}; {!config} reflects the change).  Geometry is
    hardware-fixed and cannot be retuned online. *)

val in_fallback : t -> bool
(** Whether the adaptive traffic-profile monitor (paper section 7; enabled
    by {!Config.t.adaptive}) currently installs whole-traversal
    Megaflow-style entries because recent sub-traversal sharing was below
    threshold. Always [false] when the feature is off. *)

val attach_telemetry : t -> Gf_telemetry.Registry.t -> unit
(** Register install-path counters in [registry]
    ([gigaflow_ltm_rules_total{result=fresh|shared|rejected}],
    [gigaflow_ltm_segments_total], whole-traversal installs, adaptive
    fallback flips and the fallback-active gauge) and update them on every
    subsequent {!install_traversal}.  Handles are resolved once here;
    without attachment the install path performs no telemetry work. *)

val lookup :
  t -> now:float -> pipeline:Gf_pipeline.Pipeline.t -> Gf_flow.Flow.t ->
  Gf_cache.Hit.t option * int
(** LTM cache lookup (the entry tag is the pipeline's entry table). *)

type install_outcome = {
  install : Gf_cache.Install.t;
  segments : Partitioner.segment list;
  partition_work : int;
  rulegen_work : int;
}

val install_traversal :
  t -> now:float -> version:int -> Gf_pipeline.Traversal.t -> install_outcome
(** The install half of {!handle_miss}: partition an already-executed
    traversal into at most [available_tables] segments, generate LTM rules
    ([version] is the pipeline version) and install them, updating the
    adaptive traffic profile.  Lets a cache hierarchy execute the slowpath
    once and feed the same traversal to every level. *)

val handle_miss :
  t ->
  now:float ->
  pipeline:Gf_pipeline.Pipeline.t ->
  Gf_flow.Flow.t ->
  (miss_outcome, Gf_pipeline.Executor.error) result
(** Slowpath processing of one missed packet: execute, then
    {!install_traversal}. *)

val expire : t -> now:float -> int
(** Max-idle eviction using the configured idle budget. *)

val revalidate : t -> Gf_pipeline.Pipeline.t -> int * int
(** See {!Ltm_cache.revalidate}. *)
