(* Sharded trace replay: the shard skeleton and the sequential reference
   for multicore runs.

   Mirrors OVS's PMD-thread deployment: RSS spreads flows over cores, each
   core runs its own datapath instance with private caches, and aggregate
   throughput is the sum of per-core throughputs.  Sharding uses
   [Multicore.rss_hash], the placement of the static load model.

   [run_shards] is the set-up and merge both replay drivers share; a
   driver only says how the per-shard datapaths are driven.  [replay]
   drives them one after another on the calling domain with the
   per-packet walker ([Datapath.run]); the parallel driver is
   [Gf_engine.Engine.replay], whose merged results equal this replay's at
   the same shard count. *)

module Trace = Gf_workload.Trace
module Pipeline = Gf_pipeline.Pipeline
module Telemetry = Gf_telemetry.Telemetry

type result = {
  domains : int;
  merged : Metrics.t;
  telemetry : Telemetry.t option;
  wall_seconds : float;
  critical_path_seconds : float;
}

let shard ~domains (trace : Trace.t) =
  if domains <= 0 then invalid_arg "Parallel.shard: domains must be positive";
  if domains = 1 then [| trace |]
  else begin
    let { Trace.times; flow_ids; flows; duration } = trace in
    let n = Array.length times in
    let shard_of i = Multicore.rss_hash flow_ids.(i) mod domains in
    (* One counting pass sizes every shard exactly; the fill keeps each
       shard in trace order.  Shards share the parent's flow table, so
       their flow ids keep the parent's bound. *)
    let counts = Array.make domains 0 in
    for i = 0 to n - 1 do
      let d = shard_of i in
      counts.(d) <- counts.(d) + 1
    done;
    let shards =
      Array.map
        (fun k ->
          { Trace.times = Array.make k 0.0; flow_ids = Array.make k 0; flows; duration })
        counts
    in
    let next = Array.make domains 0 in
    for i = 0 to n - 1 do
      let d = shard_of i in
      let s = shards.(d) and j = next.(d) in
      s.Trace.times.(j) <- times.(i);
      s.Trace.flow_ids.(j) <- flow_ids.(i);
      next.(d) <- j + 1
    done;
    shards
  end

let run_shards ?telemetry ~domains ~cfg pipeline run =
  if domains <= 0 then invalid_arg "Parallel.run_shards: domains must be positive";
  (* Replicate the pipeline on the calling domain, before any shard runs:
     [Pipeline.copy] builds the parent's stale tables, whose indexes the
     replicas then share read-only. *)
  let sinks =
    Array.init domains (fun _ ->
        Option.map (fun config -> Telemetry.create ~config ()) telemetry)
  in
  let datapaths =
    Array.map
      (fun telemetry -> Datapath.create ?telemetry cfg (Pipeline.copy pipeline))
      sinks
  in
  let t0 = Unix.gettimeofday () in
  let walls = run datapaths in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  (* Merge metrics and telemetry in shard order, so the result does not
     depend on how the shards were driven. *)
  let merged_telemetry =
    Option.map
      (fun config ->
        let into = Telemetry.create ~config () in
        Array.iter (Option.iter (fun tel -> Telemetry.merge ~into tel)) sinks;
        into)
      telemetry
  in
  {
    domains;
    merged = Metrics.aggregate (Array.to_list (Array.map Datapath.metrics datapaths));
    telemetry = merged_telemetry;
    wall_seconds;
    critical_path_seconds = Array.fold_left Float.max 0.0 walls;
  }

let replay ?(domains = 1) ?telemetry ~cfg pipeline trace =
  let shards = shard ~domains trace in
  run_shards ?telemetry ~domains ~cfg pipeline
    (Array.mapi (fun i dp ->
         let t0 = Unix.gettimeofday () in
         ignore (Datapath.run dp shards.(i) : Metrics.t);
         Unix.gettimeofday () -. t0))
