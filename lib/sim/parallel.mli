(** Sharded trace replay: the sequential reference for multicore runs.

    The static {!Multicore} model predicts per-core slowpath load; this
    module replays the datapath the way OVS's PMD deployment runs it:
    flows are RSS-sharded over N cores (the same {!Multicore.rss_hash}, so
    flow placement is identical to the model's), each shard replays
    against a private {!Datapath.t} (per-core caches) over a
    {!Gf_pipeline.Pipeline.copy} replica, and the per-shard {!Metrics.t}
    are merged into an aggregate.

    {!replay} runs the shards one after another on the calling domain, so
    each shard's wall time is undistorted by time-slicing on hosts with
    fewer cores than shards.  The parallel driver is
    [Gf_engine.Engine.replay]: it shards identically and its merged
    results are bit-identical to {!replay}'s at the same shard count
    (property-tested), which makes this module its test oracle. *)

type shard_run = {
  domain_id : int;
  packets : int;
  metrics : Metrics.t;
  wall_seconds : float;  (** this shard's own replay time *)
  flow_cycles : (int, int) Hashtbl.t;
      (** slowpath cycles per flow id (the {!Multicore} census, per shard) *)
}

type result = {
  domains : int;
  shards : shard_run array;
  merged : Metrics.t;  (** {!Metrics.aggregate} of all shards *)
  telemetry : Gf_telemetry.Telemetry.t option;
      (** Merged shard telemetry (registries sum, recorder streams
          concatenate in shard order, series interleave by packet index);
          [None] unless [replay ~telemetry] was given.  Deterministic. *)
  wall_seconds : float;  (** whole replay, first shard to last *)
  critical_path_seconds : float;
      (** max per-shard wall time — the wall clock of a parallel run when
          every shard has a dedicated core *)
}

val shard : domains:int -> Gf_workload.Trace.t -> Gf_workload.Trace.t array
(** Partition packets by [Multicore.rss_hash flow_id mod domains],
    preserving per-shard time order.  Shards are disjoint by flow and
    their packets union back to the input.  [domains = 1] returns the
    input trace itself. *)

val replay :
  ?domains:int ->
  ?telemetry:Gf_telemetry.Telemetry.config ->
  cfg:Datapath.config ->
  Gf_pipeline.Pipeline.t ->
  Gf_workload.Trace.t ->
  result
(** Replay the trace sharded over [domains] datapaths (default 1), one
    shard after another with the per-packet walker ({!Datapath.run}).  The
    input pipeline is only read (it is replicated per shard with
    {!Gf_pipeline.Pipeline.copy}); caches are created fresh per shard,
    like OVS PMD threads.  [telemetry] creates a private sink per shard
    from the given config and merges them into {!result.telemetry} in
    shard order. *)

val measured_loads : result -> Multicore.t
(** Measured per-domain slowpath cycles, wrapped for comparison with the
    static model. *)

val model_loads : result -> Multicore.t
(** The static model's prediction from the same census:
    [Multicore.distribute] over the union of the per-shard slowpath
    censuses (disjoint by construction).  Equals {!measured_loads}
    exactly — the model and the engine use the same hash — which is the
    cross-validation the tests pin down. *)
