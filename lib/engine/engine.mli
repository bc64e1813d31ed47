(** The batched streaming datapath engine.

    A Snabb-style app graph of long-lived domains: a source on the calling
    domain pulls fixed-size packet batches from a
    {!Gf_workload.Trace.stream}, RSS-shards them over bounded SPSC
    {!Ring}s into per-shard worker domains (each driving a private
    {!Gf_sim.Datapath.t} over a pipeline replica, like OVS PMD threads).
    It is a runner over {!Gf_sim.Parallel.run_shards}, which builds the
    shards and merges per-shard metrics and telemetry deterministically
    after the join.  Batches recycle through a pre-allocated pool, so the
    steady state allocates nothing per packet.

    Workers process packets with {!Gf_sim.Datapath.process_memo} — the
    amortising walker that replays per-flow sub-traversal results while
    cache contents are unchanged — and check the telemetry sample cadence
    once per batch instead of once per packet.

    Determinism: demux uses [Multicore.rss_hash flow_id mod domains]
    (identical flow placement to {!Gf_sim.Parallel.shard}) and per-shard
    packet order is the stream order, so the merged metrics are
    bit-identical to {!Gf_sim.Parallel.replay} (sequential sharded replay
    with the per-packet walker) over the materialised trace, at any
    worker count.  This is the library's only parallel driver. *)

val default_batch_size : int
(** 256 packets. *)

val replay :
  ?telemetry:Gf_telemetry.Telemetry.config ->
  ?batch_size:int ->
  ?domains:int ->
  cfg:Gf_sim.Datapath.config ->
  Gf_pipeline.Pipeline.t ->
  Gf_workload.Trace.stream ->
  Gf_sim.Parallel.result
(** Drain [stream] through the engine ([batch_size] defaults to
    {!default_batch_size}, [domains] to 1; each link holds 8 batches per
    direction).  Shard set-up and the merge are
    {!Gf_sim.Parallel.run_shards}'s: [telemetry] gives every worker a
    private sink, merged in shard order after the join.  [domains = 1]
    runs inline on the calling domain — no spawns, no rings — which is
    the honest single-core configuration throughput benchmarks compare
    against the per-packet walker.  [wall_seconds] spans pull-to-join,
    [critical_path_seconds] is the slowest worker.  Raises
    [Invalid_argument] if [batch_size] or [domains] is not positive. *)
