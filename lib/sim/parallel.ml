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
    let buckets = Array.make domains [] in
    let ps = trace.Trace.packets in
    (* Reverse walk so the per-shard cons lists come out in time order. *)
    for i = Array.length ps - 1 downto 0 do
      let p = ps.(i) in
      let d = Multicore.rss_hash p.Trace.flow_id mod domains in
      buckets.(d) <- p :: buckets.(d)
    done;
    Array.map
      (fun pkts ->
        let packets = Array.of_list pkts in
        let seen = Hashtbl.create 256 in
        Array.iter
          (fun (p : Trace.packet) -> Hashtbl.replace seen p.Trace.flow_id ())
          packets;
        {
          Trace.packets;
          unique_flows = Hashtbl.length seen;
          duration = trace.Trace.duration;
        })
      buckets
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
