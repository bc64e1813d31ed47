(* Replays of one workload.  [library] is what the timed repetitions run:
   the simulator's own replay functions, untouched.  [own] makes the same public
   calls from the benchmark's files — Trace.fill, Datapath.process or
   process_memo per packet, maybe_sample, finalize, and for the load test
   its queue model and controller hook — so that it can sample decisions
   for the oracle and, when traced, time each call.  Its counters must
   equal the library's. *)

module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Trace = Gf_workload.Trace
module Loadtest = Gf_engine.Loadtest
module Controller = Gf_control.Controller
module Histogram = Gf_telemetry.Histogram
module Pipeline = Gf_pipeline.Pipeline
module Action = Gf_pipeline.Action
module Flow = Gf_flow.Flow
module W = Workloads

let check_every = 64 (* oracle-checked packet cadence *)
let keep_every = 1024 (* packets whose spans are kept whole *)
let sample_cap = 4096 (* trailing packets kept for the component timings *)
let slow_cap = 1024 (* slowpath flows kept for the component timings *)

type run = {
  metrics : Metrics.t;
  processed : int;  (** packets that reached the datapath *)
  windows : Loadtest.window list;  (** load test only *)
  actions : Controller.action list;  (** load test only *)
}

(* What an own replay observed, for the oracle and the component timings. *)
type observed = {
  mutable count : int;
  mutable decisions : (Flow.t * Action.terminal option) list;
  sample_ids : int array;
  sample_flows : Flow.t array;
  sample_lat : float array;
  mutable slow : Flow.t list;
  mutable n_slow : int;
  mutable last_time : float;
}

let observed () =
  {
    count = 0;
    decisions = [];
    sample_ids = Array.make sample_cap 0;
    sample_flows = Array.make sample_cap Flow.zero;
    sample_lat = Array.make sample_cap 0.0;
    slow = [];
    n_slow = 0;
    last_time = 0.0;
  }

let observe o ~flow_id flow outcome terminal latency =
  let i = o.count in
  if i mod check_every = 0 then o.decisions <- (flow, terminal) :: o.decisions;
  (* The last packets' flows are the ones live in the final cache state
     the component timings probe. *)
  let j = i mod sample_cap in
  o.sample_ids.(j) <- flow_id;
  o.sample_flows.(j) <- flow;
  o.sample_lat.(j) <- latency;
  (match outcome with
  | Datapath.Slowpath when o.n_slow < slow_cap ->
      o.slow <- flow :: o.slow;
      o.n_slow <- o.n_slow + 1
  | Datapath.Hw_hit | Datapath.Sw_hit | Datapath.Slowpath -> ());
  o.count <- i + 1

(* Span bookkeeping of traced replays; aggregates accumulate across them. *)
type tracer = {
  rec_ : Spans.recorder;
  hw : Spans.stat;
  sw : Spans.stat;
  slowpath : Spans.stat;
  fill : Spans.stat;
  mutable filled : int;
  hook : Spans.stat;
  mutable loop_ns : int;
  mutable packets : int;
}

let tracer () =
  {
    rec_ = Spans.recorder ();
    hw = Spans.stat ~stride:16 ();
    sw = Spans.stat ();
    slowpath = Spans.stat ();
    fill = Spans.stat ();
    filled = 0;
    hook = Spans.stat ();
    loop_ns = 0;
    packets = 0;
  }

let process ~memo dp ~now ~flow_id flow =
  if memo then Datapath.process_memo dp ~now ~flow_id flow
  else Datapath.process ~flow_id dp ~now flow

(* One packet.  Traced, the span and the minor words allocated are
   charged to the outcome the datapath returned. *)
let step tr ~memo ~parent ~pkt dp ~now ~flow_id flow =
  match tr with
  | None -> process ~memo dp ~now ~flow_id flow
  | Some tr ->
      let w0 = Gc.minor_words () in
      let s = Spans.now_ns () in
      let ((outcome, _, _) as r) = process ~memo dp ~now ~flow_id flow in
      let e = Spans.now_ns () in
      let w1 = Gc.minor_words () in
      let st, name =
        match outcome with
        | Datapath.Hw_hit -> (tr.hw, "sim.hw_hit")
        | Datapath.Sw_hit -> (tr.sw, "sim.sw_hit")
        | Datapath.Slowpath -> (tr.slowpath, "sim.slowpath")
      in
      Spans.add st ~ns:(e - s) ~words:(w1 -. w0);
      if pkt mod keep_every = 0 then
        Spans.keep tr.rec_ ~id:(Spans.fresh_id tr.rec_) ~name ~start:s ~stop:e ~parent
          ~packet:pkt;
      r

let fill tr stream ~times ~flow_ids ~flows ~max =
  match tr with
  | None -> Trace.fill stream ~times ~flow_ids ~flows ~max
  | Some tr ->
      let s = Spans.now_ns () in
      let k = Trace.fill stream ~times ~flow_ids ~flows ~max in
      Spans.add tr.fill ~ns:(Spans.now_ns () - s) ~words:0.0;
      tr.filled <- tr.filled + k;
      k

let open_span tr =
  match tr with Some tr -> (Spans.fresh_id tr.rec_, Spans.now_ns ()) | None -> (0, 0)

let close_span tr ~name ~parent (id, start) =
  match tr with
  | Some tr ->
      Spans.keep tr.rec_ ~id ~name ~start ~stop:(Spans.now_ns ()) ~parent ~packet:(-1)
  | None -> ()

let end_replay tr (root_id, root_start) ~packets =
  match tr with
  | Some t ->
      t.loop_ns <- t.loop_ns + (Spans.now_ns () - root_start);
      t.packets <- t.packets + packets;
      close_span tr ~name:"replay" ~parent:0 (root_id, root_start);
      t.rec_.Spans.keep <- false
  | None -> ()

(* [Engine.replay ~domains:1] (memo) or [Datapath.run] (walker), batch by
   batch. *)
let batch_replay ?tr ~memo dp stream obs =
  let bs = Gf_engine.Engine.default_batch_size in
  let times = Array.make bs 0.0 and flow_ids = Array.make bs 0 in
  let flows = Array.make bs Flow.zero in
  let root = open_span tr in
  let rec loop () =
    let k = fill tr stream ~times ~flow_ids ~flows ~max:bs in
    if k > 0 then begin
      let batch = open_span tr in
      for i = 0 to k - 1 do
        let flow_id = flow_ids.(i) and flow = flows.(i) in
        let outcome, terminal, latency =
          step tr ~memo ~parent:(fst batch) ~pkt:obs.count dp ~now:times.(i) ~flow_id flow
        in
        observe obs ~flow_id flow outcome terminal latency
      done;
      if memo then Datapath.maybe_sample dp ~time:times.(k - 1);
      obs.last_time <- times.(k - 1);
      close_span tr ~name:"batch" ~parent:(fst root) batch;
      loop ()
    end
  in
  loop ();
  let m = Datapath.finalize dp ~time:obs.last_time in
  end_replay tr root ~packets:obs.count;
  m

(* [Loadtest]'s SLO check, with its violation strings: the controller
   reads their prefixes. *)
let violations (slo : Loadtest.slo) (w : Loadtest.window) =
  let out = ref [] in
  let above name v bound =
    if v > bound then out := Printf.sprintf "%s %.3f > %.3f" name v bound :: !out
  and below name v bound =
    if v < bound then out := Printf.sprintf "%s %.3f < %.3f" name v bound :: !out
  in
  above "p50_us" w.Loadtest.w_p50_us slo.Loadtest.slo_p50_us;
  above "p99_us" w.Loadtest.w_p99_us slo.Loadtest.slo_p99_us;
  above "p999_us" w.Loadtest.w_p999_us slo.Loadtest.slo_p999_us;
  above "drop_rate" w.Loadtest.w_drop_rate slo.Loadtest.slo_drop_rate;
  below "hw_hit_rate" w.Loadtest.w_hw_hit_rate slo.Loadtest.slo_hw_hit_rate;
  List.rev !out

(* [Loadtest.run]'s single-server queue: packet n arrives at n / rate,
   waits for the server, is tail-dropped past the queue budget, and its
   modelled latency is its service time.  Windows close (and the hook
   fires) on the same packet positions as the library's. *)
let load_replay ?tr (l : W.load) ~rate ~hook dp stream obs =
  let queue_budget_us = 500.0 (* [Loadtest.run]'s default *) in
  let m = Datapath.metrics dp in
  let batch = 1024 in
  let times = Array.make batch 0.0 and flow_ids = Array.make batch 0 in
  let flows = Array.make batch Flow.zero in
  let budget_s = queue_budget_us *. 1e-6 in
  let server_free = ref 0.0 and offered = ref 0 in
  let hist = ref (Histogram.create ()) in
  let w_index = ref (-1) and w_offered = ref 0 and w_dropped = ref 0 in
  let w_processed = ref 0 and w_hw_hits0 = ref 0 in
  let root = open_span tr in
  let wspan = ref (open_span tr) in
  let acc = ref [] in
  let close_window () =
    if !w_offered > 0 then begin
      let h = !hist in
      let q f = if Histogram.count h = 0 then 0.0 else f h in
      let processed = !w_processed in
      let w =
        {
          Loadtest.w_index = !w_index;
          w_offered = !w_offered;
          w_processed = processed;
          w_dropped = !w_dropped;
          w_drop_rate = float_of_int !w_dropped /. float_of_int !w_offered;
          w_mean_us = Histogram.mean h;
          w_p50_us = q Histogram.p50;
          w_p99_us = q Histogram.p99;
          w_p999_us = q Histogram.p999;
          w_hw_hit_rate =
            (if processed = 0 then 0.0
             else float_of_int (m.Metrics.hw_hits - !w_hw_hits0) /. float_of_int processed);
          w_truncated = !w_index >= 0 && !w_offered < l.W.window;
          w_violations = [];
        }
      in
      let w = { w with Loadtest.w_violations = violations l.W.slo w } in
      if !w_index >= 0 then acc := w :: !acc;
      close_span tr ~name:"window" ~parent:(fst root) !wspan;
      match tr with
      | None -> hook dp w
      | Some t ->
          let s = Spans.now_ns () in
          hook dp w;
          let e = Spans.now_ns () in
          Spans.add t.hook ~ns:(e - s) ~words:0.0;
          Spans.keep t.rec_ ~id:(Spans.fresh_id t.rec_) ~name:"control.on_window" ~start:s
            ~stop:e ~parent:(fst root) ~packet:(-1)
    end
  in
  let open_window () =
    incr w_index;
    w_offered := 0;
    w_dropped := 0;
    w_processed := 0;
    w_hw_hits0 := m.Metrics.hw_hits;
    hist := Histogram.create ();
    wspan := open_span tr
  in
  let total_budget = l.W.warmup + (l.W.windows * l.W.window) in
  let continue = ref true in
  while !continue do
    let k = fill tr stream ~times ~flow_ids ~flows ~max:batch in
    if k = 0 then continue := false
    else
      for i = 0 to k - 1 do
        if !offered < total_budget then begin
          if !offered >= l.W.warmup && (!offered - l.W.warmup) mod l.W.window = 0 then begin
            close_window ();
            open_window ()
          end;
          let arrival = float_of_int !offered /. rate in
          incr offered;
          incr w_offered;
          let qdelay = Float.max 0.0 (!server_free -. arrival) in
          if qdelay > budget_s then incr w_dropped
          else begin
            let flow_id = flow_ids.(i) and flow = flows.(i) in
            let outcome, terminal, lat_us =
              step tr ~memo:true ~parent:(fst !wspan) ~pkt:obs.count dp ~now:arrival ~flow_id
                flow
            in
            observe obs ~flow_id flow outcome terminal lat_us;
            server_free := arrival +. qdelay +. (lat_us *. 1e-6);
            incr w_processed;
            Histogram.record !hist ((qdelay *. 1e6) +. lat_us)
          end
        end
      done
  done;
  close_window ();
  obs.last_time <- float_of_int !offered /. rate;
  let m = Datapath.finalize dp ~time:obs.last_time in
  end_replay tr root ~packets:obs.count;
  (List.rev !acc, m)

(* The workload's library replay, as a user would call it.  [rate] is
   the load test's offered rate (ignored by the other runners). *)
let library (w : W.t) (inputs : W.inputs) ~rate =
  match w.W.runner with
  | W.Engine ->
      let r = Gf_engine.Engine.replay ~domains:1 ~cfg:w.W.cfg inputs.W.pipeline (inputs.W.stream ()) in
      let m = r.Gf_sim.Parallel.merged in
      { metrics = m; processed = m.Metrics.packets; windows = []; actions = [] }
  | W.Walker ->
      let dp = Datapath.create w.W.cfg (Pipeline.copy inputs.W.pipeline) in
      let m = Datapath.run dp (Option.get inputs.W.trace) in
      { metrics = m; processed = m.Metrics.packets; windows = []; actions = [] }
  | W.Load l ->
      (* The rate-dependent metrics come from the live datapath the hook
         receives. *)
      let c = Controller.create () in
      let live = ref None in
      let report =
        Loadtest.run ~warmup:l.W.warmup ~window:l.W.window ~windows:l.W.windows
          ~telemetry:(W.census_telemetry ())
          ~controller:(fun dp wr ->
            live := Some dp;
            Controller.on_window c dp wr)
          ~rate ~slo:l.W.slo w.W.cfg (Pipeline.copy inputs.W.pipeline) (inputs.W.stream ())
      in
      {
        metrics = Datapath.metrics (Option.get !live);
        processed = report.Loadtest.total_processed;
        windows = report.Loadtest.windows;
        actions = Controller.actions c;
      }

(* The same replay through the benchmark's own loop; returns the live
   datapath too, for the component timings. *)
let own ?tr (w : W.t) (inputs : W.inputs) ~rate obs =
  match w.W.runner with
  | W.Engine | W.Walker ->
      let dp = Datapath.create w.W.cfg (Pipeline.copy inputs.W.pipeline) in
      let memo = w.W.runner = W.Engine in
      let m = batch_replay ?tr ~memo dp (inputs.W.stream ()) obs in
      ({ metrics = m; processed = m.Metrics.packets; windows = []; actions = [] }, dp)
  | W.Load l ->
      let c = Controller.create () in
      let dp =
        Datapath.create ~telemetry:(W.census_telemetry ()) w.W.cfg (Pipeline.copy inputs.W.pipeline)
      in
      let windows, m =
        load_replay ?tr l ~rate ~hook:(Controller.on_window c) dp (inputs.W.stream ()) obs
      in
      ({ metrics = m; processed = obs.count; windows; actions = Controller.actions c }, dp)

(* Everything a pure speed-up must leave unchanged. *)
let fingerprint r =
  let m = r.metrics in
  let levels =
    List.concat_map
      (fun (l : Metrics.level) ->
        [
          l.Metrics.hits; l.Metrics.misses; l.Metrics.installs; l.Metrics.shared;
          l.Metrics.rejected; l.Metrics.evictions; l.Metrics.pressure_evictions;
          l.Metrics.deferred; l.Metrics.demotions; l.Metrics.work; l.Metrics.occupancy_peak;
        ])
      m.Metrics.levels
  in
  ( [
      m.Metrics.packets; m.Metrics.hw_hits; m.Metrics.sw_hits; m.Metrics.slowpaths;
      m.Metrics.drops; m.Metrics.hw_installs; m.Metrics.hw_shared; m.Metrics.hw_rejected;
      m.Metrics.hw_evictions; m.Metrics.hw_pressure_evictions; m.Metrics.hw_deferred;
      m.Metrics.hw_demotions; Metrics.total_cycles m; r.processed;
    ]
    @ levels,
    Int64.bits_of_float (Metrics.mean_latency_us m),
    r.windows,
    List.map
      (fun (a : Controller.action) ->
        (a.Controller.act_window, a.Controller.act_knob, a.Controller.act_level,
         a.Controller.act_from, a.Controller.act_to))
      r.actions )

(* Sampled decisions against a bare slowpath over a fresh pipeline copy:
   (checked, failed). *)
let check_decisions pipeline decisions =
  let oracle = Pipeline.copy pipeline in
  List.fold_left
    (fun (checked, failed) (flow, terminal) ->
      let ok =
        match (terminal, Gf_pipeline.Executor.terminal_of oracle flow) with
        | Some t, Ok (t', _) -> Action.terminal_equal t t'
        | _ -> false
      in
      (checked + 1, if ok then failed else failed + 1))
    (0, 0) decisions
