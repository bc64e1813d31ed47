(* Push-based streaming engine (Snabb-style app graph).

   Topology:

     source (calling domain)
       --- demux by Multicore.rss_hash flow_id mod domains ---
     [ SPSC fwd ring ]  -> worker domain w: Datapath.process_memo per packet
     [ SPSC recycle ring ] <- processed batches return for refilling

   The source pulls packet batches from a [Trace.stream], scatters them
   into per-worker open batches and pushes full batches downstream; each
   long-lived worker domain drives one of the datapaths
   [Parallel.run_shards] built (per-core caches over a pipeline replica,
   like OVS PMD threads) and processes whole batches between ring
   operations.  Batches come from a fixed per-link pool and circulate
   source -> fwd -> worker -> recycle -> source, so the steady state
   allocates nothing per packet.  The engine is only this runner:
   [run_shards] builds the shards and merges their metrics and telemetry.

   Determinism: the demux hash and per-shard packet order are exactly
   [Parallel.shard]'s, each worker is deterministic, and [run_shards]
   merges in shard order — so for a given stream the merged metrics are
   bit-identical to [Parallel.replay] (sequential sharded replay with the
   per-packet walker) over the materialised trace, at any worker count
   (property-tested). *)

module Trace = Gf_workload.Trace
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Multicore = Gf_sim.Multicore
module Parallel = Gf_sim.Parallel

let default_batch_size = 256

(* Batches in flight per link direction. *)
let ring_depth = 8

type link = { fwd : Batch.t Ring.t; recycle : Batch.t Ring.t }

(* Per-batch amortisation: one tight loop over the batch with no
   per-packet closure dispatch, and the telemetry sample-cadence check
   hoisted out of the per-packet path (checked once per batch — the
   engine's hot-path telemetry saving). *)
let process_batch dp (b : Batch.t) =
  for i = 0 to b.Batch.len - 1 do
    ignore
      (Datapath.process_memo dp ~now:b.Batch.times.(i)
         ~flow_id:b.Batch.flow_ids.(i) b.Batch.flows.(i))
  done;
  (* Per-batch sampler tick: [maybe_sample] pushes a time-series sample
     when the batch crossed the cadence, so the cadence check runs once
     per batch, not once per packet. *)
  if b.Batch.len > 0 then
    Datapath.maybe_sample dp ~time:b.Batch.times.(b.Batch.len - 1)

(* A shard's end: finalize its datapath and return its wall time. *)
let finish ~t0 dp ~last_time =
  ignore (Datapath.finalize dp ~time:last_time : Metrics.t);
  Unix.gettimeofday () -. t0

(* domains = 1: no rings, no spawns — the calling domain pulls straight
   from the stream into one reused batch.  This is the honest single-core
   configuration the throughput benchmarks compare against the per-packet
   walker. *)
let run_inline ~batch_size dp stream =
  let b = Batch.create ~size:batch_size in
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
      process_batch dp b;
      loop ()
    end
  in
  loop ();
  finish ~t0 dp ~last_time:!last_time

let worker link dp =
  let last_time = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    let b = Ring.pop link.fwd in
    if not (Batch.is_poison b) then begin
      if b.Batch.len > 0 then last_time := b.Batch.times.(b.Batch.len - 1);
      process_batch dp b;
      b.Batch.len <- 0;
      Ring.push link.recycle b;
      loop ()
    end
  in
  loop ();
  finish ~t0 dp ~last_time:!last_time

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

let replay ?telemetry ?(batch_size = default_batch_size) ?(domains = 1) ~cfg
    pipeline stream =
  if batch_size <= 0 then invalid_arg "Engine.replay: batch_size must be positive";
  Parallel.run_shards ?telemetry ~domains ~cfg pipeline (fun datapaths ->
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
          Array.mapi
            (fun i dp -> Domain.spawn (fun () -> worker links.(i) dp))
            datapaths
        in
        run_source ~batch_size links stream;
        Array.map Domain.join handles
      end)
