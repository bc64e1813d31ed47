(* Sharded trace replay: the sequential reference for multicore runs.

   Mirrors OVS's PMD-thread deployment: RSS spreads flows over cores, each
   core runs its own datapath instance with private caches, and aggregate
   throughput is the sum of per-core throughputs.  Sharding uses the same
   [Multicore.rss_hash] as the static load model, so the model and the
   replay agree on flow placement by construction and can cross-validate
   each other ([model_loads] vs [measured_loads]).

   [replay] runs the shards one after another on the calling domain with
   the per-packet walker ([Datapath.run]); the parallel driver is
   [Gf_engine.Engine.replay], whose merged results equal this replay's at
   the same shard count. *)

module Trace = Gf_workload.Trace
module Pipeline = Gf_pipeline.Pipeline

type shard_run = {
  domain_id : int;
  packets : int;
  metrics : Metrics.t;
  wall_seconds : float;
  flow_cycles : (int, int) Hashtbl.t;
}

type result = {
  domains : int;
  shards : shard_run array;
  merged : Metrics.t;
  telemetry : Gf_telemetry.Telemetry.t option;
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

let replay ?(domains = 1) ?telemetry ~cfg pipeline trace =
  let shard_traces = shard ~domains trace in
  (* Each shard gets a private telemetry sink, merged after the replay
     like metrics. *)
  let shard_telemetry =
    match telemetry with
    | None -> [||]
    | Some config ->
        Array.map
          (fun _ -> Gf_telemetry.Telemetry.create ~config ())
          shard_traces
  in
  let telemetry_of i =
    if Array.length shard_telemetry = 0 then None else Some shard_telemetry.(i)
  in
  let run_one i =
    let tr = shard_traces.(i) in
    let dp =
      Datapath.create ?telemetry:(telemetry_of i) cfg (Pipeline.copy pipeline)
    in
    let flow_cycles = Hashtbl.create 1024 in
    let t0 = Unix.gettimeofday () in
    let metrics =
      Datapath.run
        ~miss_sink:(fun ~flow_id ~cycles ->
          Hashtbl.replace flow_cycles flow_id
            (cycles + Option.value ~default:0 (Hashtbl.find_opt flow_cycles flow_id)))
        dp tr
    in
    {
      domain_id = i;
      packets = Trace.packet_count tr;
      metrics;
      wall_seconds = Unix.gettimeofday () -. t0;
      flow_cycles;
    }
  in
  let t0 = Unix.gettimeofday () in
  let shards = Array.init domains run_one in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let critical_path_seconds =
    Array.fold_left (fun acc (s : shard_run) -> Float.max acc s.wall_seconds) 0.0 shards
  in
  let merged =
    Metrics.aggregate (List.map (fun s -> s.metrics) (Array.to_list shards))
  in
  (* Merge shard telemetry in shard order, as the engine does. *)
  let merged_telemetry =
    match telemetry with
    | None -> None
    | Some config ->
        let into = Gf_telemetry.Telemetry.create ~config () in
        Array.iter
          (fun shard_tel -> Gf_telemetry.Telemetry.merge ~into shard_tel)
          shard_telemetry;
        Some into
  in
  {
    domains;
    shards;
    merged;
    telemetry = merged_telemetry;
    wall_seconds;
    critical_path_seconds;
  }

(* ------------------- static-model cross-validation ------------------- *)

let merged_flow_cycles result =
  let all = Hashtbl.create 4096 in
  Array.iter
    (fun s ->
      Hashtbl.iter
        (fun flow_id cycles ->
          Hashtbl.replace all flow_id
            (cycles + Option.value ~default:0 (Hashtbl.find_opt all flow_id)))
        s.flow_cycles)
    result.shards;
  all

let measured_loads result =
  Multicore.of_loads
    (Array.map
       (fun s -> Hashtbl.fold (fun _ cycles acc -> acc + cycles) s.flow_cycles 0)
       result.shards)

let model_loads result =
  Multicore.distribute ~cores:result.domains (merged_flow_cycles result)
