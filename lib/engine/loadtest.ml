(* packetblaster-style SLO load test: offer the datapath a sustained
   fixed-rate packet stream through a single-server queue and judge the
   observed sojourn latencies / drop rate / hardware hit rate against a
   service-level objective, window by window.

   The queue model is the textbook deterministic M/D/1-ish reduction:
   packet [n] arrives at [n / rate] seconds; service starts at
   [max (arrival, server_free)]; the modelled datapath latency of the
   packet (microseconds, from [Datapath.process_memo] at the arrival
   time) is its service time.  A packet whose queueing delay would
   exceed [queue_budget_us] is dropped at the tail and never reaches the
   datapath — exactly what a bounded NIC rx ring does under overload.
   Sojourn = queueing delay + service.

   Determinism: the whole run is a pure function of (stream, rate,
   budget, window layout) — no wall clock anywhere — so SLO gates built
   on it are reproducible in CI. *)

module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Histogram = Gf_telemetry.Histogram
module Trace = Gf_workload.Trace
module Json = Gf_util.Json
module Schema = Gf_telemetry.Schema

type slo = {
  slo_p50_us : float;
  slo_p99_us : float;
  slo_p999_us : float;
  slo_drop_rate : float;
  slo_hw_hit_rate : float;
}

let default_slo =
  {
    slo_p50_us = 5.0;
    slo_p99_us = 500.0;
    slo_p999_us = 2000.0;
    slo_drop_rate = 0.01;
    slo_hw_hit_rate = 0.5;
  }

type window = {
  w_index : int;
  w_offered : int;
  w_processed : int;
  w_dropped : int;
  w_drop_rate : float;
  w_mean_us : float;
  w_p50_us : float;
  w_p99_us : float;
  w_p999_us : float;
  w_hw_hit_rate : float;  (* hardware hits / processed, this window *)
  w_truncated : bool;
      (* the stream ran dry before the window filled: its quantiles are
         under-sampled, so it is reported but excluded from SLO gating *)
  w_violations : string list;
}

type report = {
  rate_pps : float;
  warmup : int;
  window_packets : int;
  queue_budget_us : float;
  slo : slo;
  preset : string;
  engine : string;
  windows : window list;
  total_offered : int;
  total_processed : int;
  total_dropped : int;
  pass : bool;
}

(* Stamp reports with the code that produced them, so an archived
   loadtest JSONL is traceable to a commit; runs outside a work tree
   degrade to "unknown" rather than failing. *)
let git_commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, s when s <> "" -> s
    | _ -> "unknown"
  with _ -> "unknown"

(* SLO checks for one measurement window; violation strings are
   machine-greppable "<metric> <observed> <cmp> <bound>". *)
let violations slo w =
  let out = ref [] in
  let above name v bound =
    if v > bound then out := Printf.sprintf "%s %.3f > %.3f" name v bound :: !out
  and below name v bound =
    if v < bound then out := Printf.sprintf "%s %.3f < %.3f" name v bound :: !out
  in
  above "p50_us" w.w_p50_us slo.slo_p50_us;
  above "p99_us" w.w_p99_us slo.slo_p99_us;
  above "p999_us" w.w_p999_us slo.slo_p999_us;
  above "drop_rate" w.w_drop_rate slo.slo_drop_rate;
  below "hw_hit_rate" w.w_hw_hit_rate slo.slo_hw_hit_rate;
  List.rev !out

let run ?(queue_budget_us = 500.0) ?(warmup = 50_000) ?(window = 100_000)
    ?(windows = 5) ?telemetry ?controller ~rate ~slo cfg pipeline stream =
  if rate <= 0.0 then invalid_arg "Loadtest.run: rate must be positive";
  if warmup < 0 then invalid_arg "Loadtest.run: warmup must be non-negative";
  if window < 1 then invalid_arg "Loadtest.run: window must be positive";
  if windows < 1 then invalid_arg "Loadtest.run: windows must be positive";
  let dp = Datapath.create ?telemetry cfg pipeline in
  let m = Datapath.metrics dp in
  let batch = 1024 in
  let times = Array.make batch 0.0 in
  let flow_ids = Array.make batch 0 in
  let flows = Array.make batch Gf_flow.Flow.zero in
  let budget_s = queue_budget_us *. 1e-6 in
  let server_free = ref 0.0 in
  let offered = ref 0 (* total packets offered, warmup included *) in
  let dropped_total = ref 0 in
  let processed_total = ref 0 in
  (* Current measurement window; index -1 while warming up — the warmup
     span is measured like a window (its statistics feed the controller,
     never the report or the gate) so a controller can already steer
     before window 0 is judged.  The sojourn histogram is per window
     (quantiles are window statistics), allocated fresh at each window
     open — windows are few, packets are not. *)
  let hist = ref (Histogram.create ()) in
  let w_index = ref (-1) in
  let w_offered = ref 0 in
  let w_dropped = ref 0 in
  let w_processed = ref 0 in
  let w_hw_hits0 = ref 0 in
  let acc = ref [] in
  (* Close the current span: build its window record, append it to the
     report when it is a real measurement window (index >= 0), and fire
     the controller hook — control cadence == measurement cadence, and
     both are pure functions of the stream position, so attaching a
     controller changes nothing about when datapath state is read. *)
  let close_window () =
    if !w_offered > 0 then begin
      let h = !hist in
      let q f = if Histogram.count h = 0 then 0.0 else f h in
      let processed = !w_processed in
      let hw_delta = m.Metrics.hw_hits - !w_hw_hits0 in
      let w =
        {
          w_index = !w_index;
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
             else float_of_int hw_delta /. float_of_int processed);
          w_truncated = !w_index >= 0 && !w_offered < window;
          w_violations = [];
        }
      in
      let w = { w with w_violations = violations slo w } in
      if !w_index >= 0 then acc := w :: !acc;
      match controller with Some f -> f dp w | None -> ()
    end
  in
  let open_window () =
    incr w_index;
    w_offered := 0;
    w_dropped := 0;
    w_processed := 0;
    w_hw_hits0 := m.Metrics.hw_hits;
    hist := Histogram.create ()
  in
  let total_budget = warmup + (windows * window) in
  let continue = ref true in
  while !continue do
    let k = Trace.fill stream ~times ~flow_ids ~flows ~max:batch in
    if k = 0 then continue := false
    else
      for i = 0 to k - 1 do
        if !offered < total_budget then begin
          let in_measure = !offered >= warmup in
          if in_measure && (!offered - warmup) mod window = 0 then begin
            close_window ();
            open_window ()
          end;
          let arrival = float_of_int !offered /. rate in
          incr offered;
          incr w_offered;
          let qdelay = !server_free -. arrival in
          let qdelay = if qdelay > 0.0 then qdelay else 0.0 in
          if qdelay > budget_s then begin
            (* Tail drop: the packet never reaches the datapath. *)
            incr dropped_total;
            incr w_dropped
          end
          else begin
            let _, _, lat_us =
              Datapath.process_memo dp ~now:arrival ~flow_id:flow_ids.(i)
                flows.(i)
            in
            server_free := arrival +. qdelay +. (lat_us *. 1e-6);
            incr processed_total;
            incr w_processed;
            Histogram.record !hist ((qdelay *. 1e6) +. lat_us)
          end
        end
      done
  done;
  close_window ();
  ignore (Datapath.finalize dp ~time:(float_of_int !offered /. rate));
  let ws = List.rev !acc in
  (* Truncated windows (the stream ran dry mid-window) are reported but
     not gated: their quantiles are under-sampled and a p99 over a
     handful of packets can flip the verdict either way. *)
  let gated = List.filter (fun w -> not w.w_truncated) ws in
  {
    rate_pps = rate;
    warmup;
    window_packets = window;
    queue_budget_us;
    slo;
    preset = cfg.Datapath.name;
    engine = "memo";
    windows = ws;
    total_offered = !offered;
    total_processed = !processed_total;
    total_dropped = !dropped_total;
    pass = gated <> [] && List.for_all (fun w -> w.w_violations = []) gated;
  }

(* ------------------------------- output -------------------------------- *)

let meta_json ?(meta = []) r =
  Schema.line Schema.Loadtest_meta
    (meta
    @ [
        ("commit", Json.Str (git_commit ()));
        ("preset", Json.Str r.preset);
        ("engine", Json.Str r.engine);
        ("rate_pps", Json.Float r.rate_pps);
        ("warmup", Json.Int r.warmup);
        ("window", Json.Int r.window_packets);
        ("windows", Json.Int (List.length r.windows));
        ("queue_budget_us", Json.Float r.queue_budget_us);
        ("slo_p50_us", Json.Float r.slo.slo_p50_us);
        ("slo_p99_us", Json.Float r.slo.slo_p99_us);
        ("slo_p999_us", Json.Float r.slo.slo_p999_us);
        ("slo_drop_rate", Json.Float r.slo.slo_drop_rate);
        ("slo_hw_hit_rate", Json.Float r.slo.slo_hw_hit_rate);
      ])

let window_json w =
  Schema.line Schema.Loadtest_window
    [
      ("index", Json.Int w.w_index);
      ("offered", Json.Int w.w_offered);
      ("processed", Json.Int w.w_processed);
      ("dropped", Json.Int w.w_dropped);
      ("drop_rate", Json.Float w.w_drop_rate);
      ("mean_us", Json.Float w.w_mean_us);
      ("p50_us", Json.Float w.w_p50_us);
      ("p99_us", Json.Float w.w_p99_us);
      ("p999_us", Json.Float w.w_p999_us);
      ("hw_hit_rate", Json.Float w.w_hw_hit_rate);
      ("truncated", Json.Bool w.w_truncated);
      ("violations", Json.List (List.map (fun v -> Json.Str v) w.w_violations));
    ]

let summary_json r =
  let nviol =
    List.fold_left (fun a w -> a + List.length w.w_violations) 0 r.windows
  in
  let ntrunc =
    List.fold_left (fun a w -> a + if w.w_truncated then 1 else 0) 0 r.windows
  in
  Schema.line Schema.Loadtest_summary
    [
      ("pass", Json.Bool r.pass);
      ("windows", Json.Int (List.length r.windows));
      ("truncated_windows", Json.Int ntrunc);
      ("total_offered", Json.Int r.total_offered);
      ("total_processed", Json.Int r.total_processed);
      ("total_dropped", Json.Int r.total_dropped);
      ("violations", Json.Int nviol);
    ]

let write_jsonl ?meta ?(extra = []) oc r =
  let line = Schema.write_line oc in
  line (meta_json ?meta r);
  List.iter (fun w -> line (window_json w)) r.windows;
  List.iter line extra;
  line (summary_json r)
