(* Push-based streaming engine (Snabb-style app graph).

   Topology:

     source (calling domain)
       --- demux by Multicore.rss_hash flow_id mod domains ---
     [ SPSC fwd ring ]  -> worker domain w: Datapath.process_memo per packet
     [ SPSC recycle ring ] <- processed batches return for refilling

   The source pulls packet batches from a [Trace.stream], scatters them
   into per-worker open batches and pushes full batches downstream; each
   long-lived worker domain owns a private [Datapath.t] over a
   [Pipeline.copy] replica (per-core caches, like OVS PMD threads) and
   processes whole batches between ring operations.  Batches come from a
   fixed per-link pool and circulate source -> fwd -> worker -> recycle ->
   source, so the steady state allocates nothing per packet.

   Determinism: the demux hash and per-shard packet order are exactly
   [Parallel.shard]'s, each worker is deterministic, and shard metrics are
   merged in shard order — so for a given stream the merged metrics are
   bit-identical to [Parallel.replay] (sequential sharded replay with the
   per-packet walker) over the materialised trace, at any worker count
   (property-tested). *)

module Trace = Gf_workload.Trace
module Pipeline = Gf_pipeline.Pipeline
module Telemetry = Gf_telemetry.Telemetry
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Multicore = Gf_sim.Multicore
module Parallel = Gf_sim.Parallel

let default_batch_size = 256
let default_ring_depth = 8

type link = { fwd : Batch.t Ring.t; recycle : Batch.t Ring.t }

(* Per-batch amortisation: one tight loop over the batch with no
   per-packet closure dispatch, the slowpath-cycle census folded in, and
   the telemetry sample-cadence check hoisted out of the per-packet path
   (checked once per batch — the engine's hot-path telemetry saving). *)
let process_batch dp ~flow_cycles (b : Batch.t) =
  let m = Datapath.metrics dp in
  for i = 0 to b.Batch.len - 1 do
    let before = Metrics.total_cycles m in
    let outcome, _terminal, _latency =
      Datapath.process_memo dp ~now:b.Batch.times.(i)
        ~flow_id:b.Batch.flow_ids.(i) b.Batch.flows.(i)
    in
    match outcome with
    | Datapath.Slowpath ->
        let fid = b.Batch.flow_ids.(i) in
        Hashtbl.replace flow_cycles fid
          (Metrics.total_cycles m - before
          + Option.value ~default:0 (Hashtbl.find_opt flow_cycles fid))
    | Datapath.Hw_hit | Datapath.Sw_hit -> ()
  done;
  (* Per-batch sampler tick: [maybe_sample] pushes a time-series sample
     when the batch crossed the cadence, so the cadence check runs once
     per batch, not once per packet. *)
  if b.Batch.len > 0 then
    Datapath.maybe_sample dp ~time:b.Batch.times.(b.Batch.len - 1)

let shard_run ~domain_id ~t0 dp ~flow_cycles ~last_time =
  let metrics = Datapath.finalize dp ~time:last_time in
  {
    Parallel.domain_id;
    packets = metrics.Metrics.packets;
    metrics;
    wall_seconds = Unix.gettimeofday () -. t0;
    flow_cycles;
  }

(* domains = 1: no rings, no spawns — the calling domain pulls straight
   from the stream into one reused batch.  This is the honest single-core
   configuration the throughput benchmarks compare against the per-packet
   walker. *)
let run_inline ~batch_size dp stream =
  let b = Batch.create ~size:batch_size in
  let flow_cycles = Hashtbl.create 1024 in
  let last_time = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    let k =
      Trace.fill stream ~times:b.Batch.times ~flow_ids:b.Batch.flow_ids
        ~flows:b.Batch.flows ~max:(Batch.size b)
    in
    if k > 0 then begin
      b.Batch.len <- k;
      last_time := b.Batch.times.(k - 1);
      process_batch dp ~flow_cycles b;
      loop ()
    end
  in
  loop ();
  shard_run ~domain_id:0 ~t0 dp ~flow_cycles ~last_time:!last_time

let worker ~domain_id link dp =
  let flow_cycles = Hashtbl.create 1024 in
  let last_time = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    let b = Ring.pop link.fwd in
    if not (Batch.is_poison b) then begin
      if b.Batch.len > 0 then last_time := b.Batch.times.(b.Batch.len - 1);
      process_batch dp ~flow_cycles b;
      b.Batch.len <- 0;
      Ring.push link.recycle b;
      loop ()
    end
  in
  loop ();
  shard_run ~domain_id ~t0 dp ~flow_cycles ~last_time:!last_time

(* The source: pull a staging batch from the stream, scatter by RSS hash
   into per-worker open batches, push full ones downstream, and poison
   every link once the stream runs dry.  Runs on the calling domain. *)
let run_source ~batch_size links stream =
  let domains = Array.length links in
  let times = Array.make batch_size 0.0 in
  let flow_ids = Array.make batch_size 0 in
  let flows = Array.make batch_size Gf_flow.Flow.zero in
  let open_batches = Array.map (fun l -> Ring.pop l.recycle) links in
  let rec loop () =
    let k = Trace.fill stream ~times ~flow_ids ~flows ~max:batch_size in
    if k > 0 then begin
      for i = 0 to k - 1 do
        let w = Multicore.rss_hash flow_ids.(i) mod domains in
        let b = open_batches.(w) in
        b.Batch.times.(b.Batch.len) <- times.(i);
        b.Batch.flow_ids.(b.Batch.len) <- flow_ids.(i);
        b.Batch.flows.(b.Batch.len) <- flows.(i);
        b.Batch.len <- b.Batch.len + 1;
        if b.Batch.len = Batch.size b then begin
          Ring.push links.(w).fwd b;
          open_batches.(w) <- Ring.pop links.(w).recycle
        end
      done;
      loop ()
    end
  in
  loop ();
  Array.iteri
    (fun w b ->
      if b.Batch.len > 0 then Ring.push links.(w).fwd b;
      Ring.push links.(w).fwd Batch.poison)
    open_batches

let replay ?telemetry ?(batch_size = default_batch_size)
    ?(domains = 1) ?(ring_depth = default_ring_depth) ~cfg pipeline stream =
  if batch_size <= 0 then invalid_arg "Engine.replay: batch_size must be positive";
  if domains <= 0 then invalid_arg "Engine.replay: domains must be positive";
  let shard_telemetry =
    match telemetry with
    | None -> [||]
    | Some config ->
        Array.init domains (fun _ -> Telemetry.create ~config ())
  in
  let telemetry_of i =
    if Array.length shard_telemetry = 0 then None else Some shard_telemetry.(i)
  in
  (* Replicate the pipeline in the parent, before any domain runs:
     [Pipeline.copy] builds the parent's stale tables, whose indexes the
     replicas then share read-only. *)
  let datapaths =
    Array.init domains (fun i ->
        Datapath.create ?telemetry:(telemetry_of i) cfg (Pipeline.copy pipeline))
  in
  let t0 = Unix.gettimeofday () in
  let shards =
    if domains = 1 then [| run_inline ~batch_size datapaths.(0) stream |]
    else begin
      let links =
        Array.init domains (fun _ ->
            let fwd = Ring.create ~capacity:ring_depth in
            let recycle = Ring.create ~capacity:(ring_depth + 1) in
            for _ = 1 to ring_depth do
              Ring.push recycle (Batch.create ~size:batch_size)
            done;
            { fwd; recycle })
      in
      let handles =
        Array.init domains (fun i ->
            Domain.spawn (fun () -> worker ~domain_id:i links.(i) datapaths.(i)))
      in
      run_source ~batch_size links stream;
      Array.map Domain.join handles
    end
  in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let critical_path_seconds =
    Array.fold_left
      (fun acc (s : Parallel.shard_run) -> Float.max acc s.Parallel.wall_seconds)
      0.0 shards
  in
  let merged =
    Metrics.aggregate
      (List.map (fun (s : Parallel.shard_run) -> s.Parallel.metrics)
         (Array.to_list shards))
  in
  let merged_telemetry =
    match telemetry with
    | None -> None
    | Some config ->
        let into = Telemetry.create ~config () in
        Array.iter (fun tel -> Telemetry.merge ~into tel) shard_telemetry;
        Some into
  in
  {
    Parallel.domains;
    shards;
    merged;
    telemetry = merged_telemetry;
    wall_seconds;
    critical_path_seconds;
  }
