(** Sharded trace replay: the shard skeleton both replay drivers share,
    and the sequential reference for multicore runs.

    This module replays the datapath the way OVS's PMD deployment runs it:
    flows are RSS-sharded over N cores ({!Multicore.rss_hash}, the static
    model's placement), each shard replays against a private
    {!Datapath.t} (per-core caches) over a
    {!Gf_pipeline.Pipeline.copy} replica, and the per-shard {!Metrics.t}
    are merged into an aggregate.

    {!run_shards} does the set-up and the merge; a driver passes only the
    function that drives the shards.  {!replay} drives them one after
    another on the calling domain, so each shard's wall time is
    undistorted by time-slicing on hosts with fewer cores than shards.
    The parallel driver is [Gf_engine.Engine.replay]: it shards
    identically and its merged results are bit-identical to {!replay}'s
    at the same shard count (property-tested), which makes {!replay} its
    test oracle. *)

type result = {
  domains : int;
  merged : Metrics.t;  (** {!Metrics.aggregate} of all shards *)
  telemetry : Gf_telemetry.Telemetry.t option;
      (** Merged shard telemetry (registries sum, recorder streams
          concatenate in shard order, series interleave by packet index);
          [None] unless [~telemetry] was given.  Deterministic. *)
  wall_seconds : float;  (** the whole drive, first shard to last *)
  critical_path_seconds : float;
      (** max per-shard wall time — the wall clock of a parallel run when
          every shard has a dedicated core *)
}

val shard : domains:int -> Gf_workload.Trace.t -> Gf_workload.Trace.t array
(** Partition packets by [Multicore.rss_hash flow_id mod domains],
    preserving per-shard time order.  Shards are disjoint by flow and
    their packets union back to the input.  Every shard shares the input's
    flow table and keeps its flow ids.  [domains = 1] returns the input
    trace itself. *)

val run_shards :
  ?telemetry:Gf_telemetry.Telemetry.config ->
  domains:int ->
  cfg:Datapath.config ->
  Gf_pipeline.Pipeline.t ->
  (Datapath.t array -> float array) ->
  result
(** [run_shards ~domains ~cfg pipeline run] builds [domains] datapaths on
    the calling domain, each over its own {!Gf_pipeline.Pipeline.copy}
    (the input pipeline is only read) with fresh caches and, if
    [telemetry] is given, a private sink from that config.  Then [run]
    drives every datapath to its end, {!Datapath.finalize} included, and
    returns each shard's wall time.  The clock for [wall_seconds] spans
    [run] only.  Metrics and telemetry merge in shard order.  Raises
    [Invalid_argument] if [domains <= 0]. *)

val replay :
  ?domains:int ->
  ?telemetry:Gf_telemetry.Telemetry.config ->
  cfg:Datapath.config ->
  Gf_pipeline.Pipeline.t ->
  Gf_workload.Trace.t ->
  result
(** Replay the trace sharded over [domains] datapaths (default 1) with
    {!run_shards}, one shard after another with the per-packet walker
    ({!Datapath.run}). *)
