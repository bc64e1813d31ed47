(* The repository benchmark: four workloads replayed through the
   simulator's public API, end-to-end metrics from untraced runs and
   per-layer metrics from a separate traced run.  See README.md.

     dune exec benchmark/main.exe -- --workload caida_high --seed 42
     dune exec benchmark/main.exe -- --workload all --traced
     dune exec benchmark/main.exe -- --compare before.json after.json

   One run prints its metrics, then, as its last line, one JSON object
   with the keys correct, attempted, failed and metrics; it exits
   non-zero when an output check fails. *)

module W = Workloads
module Metrics = Gf_sim.Metrics
module Loadtest = Gf_engine.Loadtest
module Histogram = Gf_telemetry.Histogram
open Report

(* Process CPU seconds of [f ()].  [Sys.time] reads getrusage, which
   resolves microseconds; [Unix.times] ticks at 10 ms, too coarse for
   set-up timing. *)
let cpu_timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let write_chrome file events =
  write_json file (Gf_util.Json.Obj [ ("traceEvents", Gf_util.Json.List events) ])

(* Run [f 0], [f 1], ... until [seconds] of wall time have passed and at
   least [min_reps] ran. *)
let repeat ~seconds ~min_reps f =
  let t0 = Unix.gettimeofday () in
  let rec go acc i =
    if i >= min_reps && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (f i :: acc) (i + 1)
  in
  go [] 0

(* [times] builds of the inputs, each from a collected heap; returns their
   CPU seconds and the last build. *)
let build (w : W.t) ~seed ~times =
  let runs =
    List.init times (fun _ ->
        Gc.compact ();
        cpu_timed (fun () -> w.W.build ~seed))
  in
  (Array.of_list (List.map snd runs), fst (List.nth runs (times - 1)))

let rate_of (w : W.t) = match w.W.runner with W.Load l -> l.W.light | W.Engine | W.Walker -> 0.0

let median xs = (summary xs).median

(* The warm-up replay: the benchmark's own loop, whose sampled decisions
   go to the oracle. *)
let warm_up w inputs ~rate =
  let obs = Replay.observed () in
  let own, _ = Replay.own w inputs ~rate obs in
  let checked, failed = Replay.check_decisions inputs.W.pipeline obs.Replay.decisions in
  (own, checked, failed)

let modelled_e2e (m : Metrics.t) =
  let per_pkt v = float_of_int v /. float_of_int (max 1 m.Metrics.packets) in
  [
    one ~modelled:true E2e "hw_hit_rate" "ratio" Higher (Metrics.hw_hit_rate m);
    one ~modelled:true E2e "slowpath_per_kpkt" "1/kpkt" Lower (1000.0 *. per_pkt m.Metrics.slowpaths);
    one ~modelled:true E2e "cycles_per_pkt" "cycles" Lower (per_pkt (Metrics.total_cycles m));
    one ~modelled:true E2e "mean_latency_us" "us" Lower (Metrics.mean_latency_us m);
    one ~modelled:true Extra "latency_p50_us" "us" Lower (Histogram.p50 m.Metrics.latency_hist);
    one ~modelled:true Extra "latency_p999_us" "us" Lower (Histogram.p999 m.Metrics.latency_hist);
  ]

(* The drifting-skew operating points: the worst complete window at the
   light and knee rates, and the highest grid rate at which that rate and
   every lower one meet the SLO's p99.9 and drop-rate bounds. *)
let slo_metrics w (l : W.load) inputs =
  let reports = Hashtbl.create 16 in
  let at rate =
    match Hashtbl.find_opt reports rate with
    | Some r -> r
    | None ->
        let r = Replay.library w inputs ~rate in
        Hashtbl.replace reports rate r;
        r
  in
  let complete rate = List.filter (fun wd -> not wd.Loadtest.w_truncated) (at rate).Replay.windows in
  let worst f rate = List.fold_left (fun a wd -> Float.max a (f wd)) 0.0 (complete rate) in
  let meets rate =
    complete rate <> []
    && List.for_all
         (fun wd ->
           wd.Loadtest.w_p999_us <= l.W.slo.Loadtest.slo_p999_us
           && wd.Loadtest.w_drop_rate <= l.W.slo.Loadtest.slo_drop_rate)
         (complete rate)
  in
  let rec scan best = function r :: rest when meets r -> scan r rest | _ -> best in
  let max_rate = scan 0.0 l.W.grid in
  let point tag rate =
    let m name f = one ~modelled:true Extra (tag ^ "." ^ name) "us" Lower (worst f rate) in
    [ m "sojourn_p50_us" (fun wd -> wd.Loadtest.w_p50_us); m "sojourn_p999_us" (fun wd -> wd.Loadtest.w_p999_us) ]
  in
  point "light" l.W.light
  @ point "knee" l.W.knee
  @ [
      one ~modelled:true Extra "knee.drop_rate" "ratio" Lower
        (worst (fun wd -> wd.Loadtest.w_drop_rate) l.W.knee);
      one ~modelled:true Extra "max_rate_kpps" "kpkt/s" Higher (max_rate /. 1e3);
    ]

(* The other library replay over the same packets must count the same:
   the walker for a memo workload with a materialised trace, the engine
   for the walker workload. *)
let cross_check (w : W.t) inputs =
  match (w.W.runner, inputs.W.trace) with
  | W.Walker, _ ->
      [ ("Engine.replay d=1 = Datapath.run", Replay.library { w with W.runner = W.Engine } inputs ~rate:0.0) ]
  | W.Engine, Some _ ->
      [ ("Datapath.run = Engine.replay d=1", Replay.library { w with W.runner = W.Walker } inputs ~rate:0.0) ]
  | W.Engine, None | W.Load _, _ -> []

let untraced ~seconds ~min_reps (w : W.t) ~seed =
  let setup, inputs = build w ~seed ~times:3 in
  let rate = rate_of w in
  let own, checked, failed = warm_up w inputs ~rate in
  let reps =
    repeat ~seconds ~min_reps (fun _ ->
        Gc.compact ();
        cpu_timed (fun () -> Replay.library w inputs ~rate))
  in
  let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let lib = fst (List.hd reps) in
  let fp = Replay.fingerprint lib in
  let checks =
    [
      ("counters identical across timed replays", List.for_all (fun (r, _) -> Replay.fingerprint r = fp) reps);
      ("own replay loop = library replay", Replay.fingerprint own = fp);
    ]
    @ List.map (fun (name, r) -> (name, Replay.fingerprint r = fp)) (cross_check w inputs)
  in
  let pps = Array.of_list (List.map (fun (r, cpu) -> float_of_int r.Replay.processed /. cpu) reps) in
  let metrics =
    [
      metric E2e "sim_pps" "1/s" Higher pps;
      metric E2e "setup_s" "s" Lower setup;
      one E2e "peak_heap_mb" "MB" Lower heap_mb;
    ]
    @ modelled_e2e lib.Replay.metrics
    @ [ one ~modelled:true Extra "failed_frac" "ratio" Lower (float_of_int failed /. float_of_int (max 1 checked)) ]
    @ match w.W.runner with W.Load l -> slo_metrics w l inputs | W.Engine | W.Walker -> []
  in
  { workload = w.W.name; seed; traced = false; attempted = checked; failed; checks; metrics }

(* The traced pass: traced and untraced replays of the benchmark's own
   loop alternate (which side goes first alternates too) until the time
   is up; their CPU ratio is the tracing overhead.  Returns the kept
   spans as chrome events under [pid]. *)
let traced ~seconds (w : W.t) ~seed ~pid =
  let setup, inputs = build w ~seed ~times:1 in
  let rate = rate_of w in
  let own, checked, failed = warm_up w inputs ~rate in
  let tr = Replay.tracer () in
  let pairs =
    repeat ~seconds ~min_reps:1 (fun i ->
        let run_traced () =
          Gc.compact ();
          let obs = Replay.observed () in
          let (r, dp), cpu = cpu_timed (fun () -> Replay.own ~tr w inputs ~rate obs) in
          (r, dp, obs, cpu)
        and run_plain () =
          Gc.compact ();
          snd (cpu_timed (fun () -> Replay.own w inputs ~rate (Replay.observed ())))
        in
        if i mod 2 = 0 then
          let t = run_traced () in
          (t, run_plain ())
        else
          let p = run_plain () in
          (run_traced (), p))
  in
  let r, dp, obs, _ = fst (List.nth pairs (List.length pairs - 1)) in
  let fp = Replay.fingerprint own in
  let checks =
    [ ("traced loop = verification loop", List.for_all (fun ((r, _, _, _), _) -> Replay.fingerprint r = fp) pairs) ]
  in
  let cpu f = Array.of_list (List.map f pairs) in
  let overhead =
    median (cpu (fun ((_, _, _, c), _) -> c)) /. median (cpu (fun (_, c) -> c)) -. 1.0
  in
  let c = Layers.components w dp obs inputs.W.pipeline in
  let metrics =
    Layers.metrics w ~build_s:setup.(0) ~overhead ~reps:(List.length pairs)
      ~actions:(List.length r.Replay.actions) tr r.Replay.metrics c
  in
  ( { workload = w.W.name; seed; traced = true; attempted = checked; failed; checks; metrics },
    Spans.chrome_events ~pid tr.Replay.rec_ )

(* ------------------------------- smoke ------------------------------- *)

(* Tier-1 hook: every workload at a tiny size, untraced and traced.  Every
   metric BENCHMARK.json names must be printed, finite and in its unit;
   the same seed must give identical modelled metrics, and seed 1042
   different inputs. *)
let smoke_scale = 0.02

let smoke ~spec_file ~chrome =
  let spec = read_spec spec_file in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if spec.s_workloads <> W.names then
    fail "BENCHMARK.json workloads [%s] differ from [%s]" (String.concat " " spec.s_workloads)
      (String.concat " " W.names);
  let check_line r expected =
    if not (correct r) then fail "%s: an output check failed" r.workload;
    List.iter
      (fun s ->
        match List.find_opt (fun m -> m.name = s.s_name && in_result_line r m) r.metrics with
        | None -> fail "%s: %s is not printed" r.workload s.s_name
        | Some m ->
            if m.unit <> s.s_unit then fail "%s: %s in %s, not %s" r.workload m.name m.unit s.s_unit;
            if better_name m.better <> s.s_better then fail "%s: %s better differs" r.workload m.name;
            if not (Float.is_finite (value m)) then fail "%s: %s is not finite" r.workload m.name)
      expected;
    List.iter
      (fun m ->
        if in_result_line r m && not (List.exists (fun s -> s.s_name = m.name) expected) then
          fail "%s: %s is not named in BENCHMARK.json" r.workload m.name)
      r.metrics
  in
  let modelled r = List.filter_map (fun m -> if m.modelled then Some (m.name, m.samples) else None) r.metrics in
  let events =
    List.concat
      (List.mapi
         (fun pid w ->
           let r = untraced ~seconds:0.0 ~min_reps:2 w ~seed:42 in
           check_line r spec.s_e2e;
           if modelled (untraced ~seconds:0.0 ~min_reps:1 w ~seed:42) <> modelled r then
             fail "%s: seed 42 twice gave different modelled metrics" w.W.name;
           if W.digest (w.W.build ~seed:42) = W.digest (w.W.build ~seed:1042) then
             fail "%s: seeds 42 and 1042 gave identical inputs" w.W.name;
           let rt, events = traced ~seconds:0.0 w ~seed:42 ~pid:(pid + 1) in
           check_line rt spec.s_layer;
           Printf.printf "smoke %-12s %d e2e + %d per-layer metrics, checks %s\n" w.W.name
             (List.length spec.s_e2e) (List.length spec.s_layer)
             (if correct r && correct rt then "ok" else "FAILED");
           events)
         (W.all ~scale:smoke_scale))
  in
  write_chrome chrome events;
  List.iter (fun p -> Printf.eprintf "smoke: %s\n" p) (List.rev !problems);
  if !problems <> [] then exit 1

(* -------------------------------- main -------------------------------- *)

let out_dir = "benchmark_out"

(* [all]: every workload in a fresh process, this executable re-run. *)
let run_all ~args ~out =
  let failures = ref 0 and parts = ref [] in
  List.iter
    (fun name ->
      let part = Option.map (fun f -> f ^ "." ^ name) out in
      let argv =
        Array.of_list
          ((Sys.executable_name :: "--workload" :: name :: args)
          @ match part with Some p -> [ "--out"; p ] | None -> [])
      in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      (match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> () | _ -> incr failures);
      Option.iter (fun p -> if Sys.file_exists p then parts := p :: !parts) part)
    W.names;
  Option.iter
    (fun f ->
      let workloads =
        List.concat_map
          (fun p ->
            let j = read_json p in
            Sys.remove p;
            fields (Gf_util.Json.member "workloads" j))
          (List.rev !parts)
      in
      write_json f (Gf_util.Json.Obj [ ("workloads", Gf_util.Json.Obj workloads) ]))
    out;
  if !failures > 0 then exit 1

let () =
  let workload = ref "all" and seed = ref 42 and seconds = ref 15.0 and trace = ref 0 in
  let out = ref "" and chrome = ref "" and spec_file = ref "BENCHMARK.json" in
  let do_smoke = ref false and cmp = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " W.names ^ ", or all (default)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42; 1042 is held out for validating claims)");
      ("--seconds", Arg.Set_float seconds, "S  measure for about S seconds (default 15)");
      ("--trace", Arg.Set_int trace, "0|1  1 runs the traced pass (per-layer metrics)");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--out", Arg.Set_string out, "F  also write medians and quartiles as JSON to F");
      ("--chrome", Arg.Set_string chrome, "F  chrome://tracing output of the traced pass");
      ("--spec", Arg.Set_string spec_file, "F  BENCHMARK.json path (smoke and compare)");
      ("--smoke", Arg.Set do_smoke, " tiny run of every workload, checked against --spec");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> cmp := [ a ]); Arg.String (fun b -> cmp := !cmp @ [ b ]) ],
        "A B  compare two --out files metric by metric" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "benchmark [options]";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  match (!cmp, !do_smoke) with
  | [ a; b ], _ -> exit (if compare_files ~spec:(read_spec !spec_file) a b > 0 then 1 else 0)
  | _, true -> smoke ~spec_file:!spec_file ~chrome:(if !chrome = "" then "smoke.trace.json" else !chrome)
  | _ ->
      let out = if !out = "" then None else Some !out in
      if !workload = "all" then
        run_all ~out
          ~args:
            [ "--seed"; string_of_int !seed; "--seconds"; string_of_float !seconds; "--trace";
              string_of_int !trace ]
      else begin
        let w =
          match List.find_opt (fun w -> w.W.name = !workload) (W.all ~scale:1.0) with
          | Some w -> w
          | None ->
              Printf.eprintf "unknown workload %S (expected %s or all)\n" !workload
                (String.concat ", " W.names);
              exit 2
        in
        let r =
          if !trace = 1 then begin
            let r, events = traced ~seconds:!seconds w ~seed:!seed ~pid:1 in
            let file =
              if !chrome <> "" then !chrome
              else begin
                if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
                Filename.concat out_dir (w.W.name ^ ".trace.json")
              end
            in
            write_chrome file events;
            Printf.printf "chrome trace: %s (%d spans)\n" file (List.length events);
            r
          end
          else untraced ~seconds:!seconds ~min_reps:3 w ~seed:!seed
        in
        print_human r;
        Option.iter
          (fun f -> write_json f (Gf_util.Json.Obj [ ("workloads", Gf_util.Json.Obj [ detail_of r ]) ]))
          out;
        print_endline (result_line r);
        if not (correct r) then exit 1
      end
