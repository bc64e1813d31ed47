(* Wall-clock throughput benchmark: sequential vs multicore replay, Megaflow
   vs Gigaflow backends, plus microbenchmarks quantifying the hot-path
   allocation/hashing work.  Writes BENCH_throughput.json — the perf
   trajectory every later PR is measured against.

   Usage:
     dune exec bench/bench_throughput.exe                  # default scale 0.25
     dune exec bench/bench_throughput.exe -- --scale 0.05  # CI smoke test
     dune build @bench-quick                               # same, via alias

   Speedup accounting: `wall_speedup` is sequential walker wall over the
   end-to-end wall clock of the parallel run (the streaming engine, one
   worker domain per shard — so it also carries the engine's memo
   amortisation); `speedup` is sequential wall over the critical path of
   the sharded walker replay (max per-shard wall, each shard timed
   running alone) — i.e. the wall clock the walker achieves when every
   domain has a dedicated core.  On hosts with fewer cores than domains
   (e.g. 1-core CI) `wall_speedup` is bounded by time-slicing while
   `speedup` still measures scaling. *)

module Catalog = Gf_pipelines.Catalog
module Pipebench = Gf_workload.Pipebench
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Parallel = Gf_sim.Parallel
module Multicore = Gf_sim.Multicore
module Engine = Gf_engine.Engine
module Flow = Gf_flow.Flow
module Field = Gf_flow.Field
module Mask = Gf_flow.Mask

let scale = ref 0.25
let seed = ref 42
let out = ref "BENCH_throughput.json"
let telemetry_out = ref ""
let domain_counts = [ 2; 4; 8 ]

let scaled n = max 1 (int_of_float (float_of_int n *. !scale))

let say fmt = Printf.printf (fmt ^^ "\n%!")

let now () = Unix.gettimeofday ()

let git_commit () =
  (* Stamp results with the code they measured; benches run from dirty
     trees too, so failure is soft. *)
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, s when s <> "" -> s
    | _ -> "unknown"
  with _ -> "unknown"

(* ------------------------------ runs ------------------------------ *)

type seq_run = { wall : float; pps : float; metrics : Metrics.t }

let run_sequential cfg pipeline trace =
  let dp = Datapath.create cfg (Gf_pipeline.Pipeline.copy pipeline) in
  let t0 = now () in
  let metrics = Datapath.run dp trace in
  let wall = now () -. t0 in
  { wall; pps = float_of_int metrics.Metrics.packets /. wall; metrics }

type par_run = {
  domains : int;
  domains_wall : float; (* engine run, one worker domain per shard *)
  critical_path : float; (* max per-shard wall, shards timed alone *)
  speedup : float; (* sequential wall / critical path *)
  wall_speedup : float; (* sequential wall / engine wall *)
  merged_pps : float; (* packets / critical path *)
  imbalance : float; (* measured per-shard slowpath-load imbalance *)
  hit_rate : float;
  matches_sequential_mode : bool; (* engine merged == sharded walker merged *)
}

let counters (m : Metrics.t) =
  [
    m.Metrics.packets; m.Metrics.hw_hits; m.Metrics.sw_hits; m.Metrics.slowpaths;
    m.Metrics.drops; m.Metrics.hw_installs; m.Metrics.hw_shared;
    m.Metrics.hw_rejected; m.Metrics.hw_evictions;
    m.Metrics.hw_pressure_evictions; m.Metrics.hw_deferred;
    m.Metrics.hw_demotions;
  ]

let run_parallel cfg pipeline trace ~domains ~seq_wall =
  (* Pass 1: shards timed one at a time — undistorted per-shard walls. *)
  let seq_shards = Parallel.replay ~domains ~cfg pipeline trace in
  (* Pass 2: the real thing, one worker domain per shard. *)
  let par = Engine.replay ~domains ~cfg pipeline (Trace.stream_of_trace trace) in
  let m = par.Parallel.merged in
  {
    domains;
    domains_wall = par.Parallel.wall_seconds;
    critical_path = seq_shards.Parallel.critical_path_seconds;
    speedup = seq_wall /. seq_shards.Parallel.critical_path_seconds;
    wall_speedup = seq_wall /. par.Parallel.wall_seconds;
    merged_pps =
      float_of_int m.Metrics.packets /. seq_shards.Parallel.critical_path_seconds;
    imbalance = Multicore.imbalance (Parallel.measured_loads par);
    hit_rate = Metrics.hw_hit_rate m;
    matches_sequential_mode =
      counters m = counters seq_shards.Parallel.merged;
  }

(* -------------------- hot-path microbenchmarks -------------------- *)

(* Each pair times the pre-optimisation implementation (reconstructed from
   the public API) against the optimised library path, on identical inputs.
   Reported as old_time / new_time (>1 = the optimisation pays). *)

let time_iters f iters =
  let t0 = now () in
  for _ = 1 to iters do
    f ()
  done;
  now () -. t0

let repeat_best f iters =
  (* best-of-3 to damp scheduler noise *)
  let a = time_iters f iters in
  let b = time_iters f iters in
  let c = time_iters f iters in
  Float.min a (Float.min b c)

(* Overhead comparisons (telemetry on vs off) need tighter hygiene than a
   wall-clock stopwatch: on a shared host the wall clock drifts by
   double-digit percentages across consecutive 10-second runs, which swamps
   a ~1% effect no matter how many sequential repeats get medianed.  Three
   defences, in order of importance: process CPU time instead of wall time
   (descheduling by noisy neighbours stops the clock), the two sides
   interleaved in pairs with the order alternated pair to pair (slow drift
   hits both halves of a pair equally; alternation cancels any
   first-in-pair bias), and the median of the per-pair ratios (a one-sided
   outlier — a GC ramp, a frequency excursion — moves one pair, not the
   estimate).  Each timed run starts from a compacted heap, and both sides
   get one discarded warmup before any pair is timed. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let paired_overhead ?(pairs = 5) plain_f tel_f =
  let timed f =
    Gc.compact ();
    let t0 = cpu_now () in
    let r = f () in
    (cpu_now () -. t0, r)
  in
  let plain_result = ref None and tel_result = ref None in
  ignore (plain_f ());
  ignore (tel_f ());
  let samples =
    Array.init pairs (fun i ->
        if i land 1 = 0 then begin
          let p, pr = timed plain_f in
          let t, tr = timed tel_f in
          plain_result := Some pr;
          tel_result := Some tr;
          (t /. p, p, t)
        end
        else begin
          let t, tr = timed tel_f in
          let p, pr = timed plain_f in
          plain_result := Some pr;
          tel_result := Some tr;
          (t /. p, p, t)
        end)
  in
  (* Float.compare, not polymorphic compare: a degenerate pair (CPU clock
     too coarse to see the plain side) yields an inf/nan ratio, which the
     polymorphic sort orders inconsistently.  Degenerate pairs are dropped
     before the median so one of them can't become the estimate — and
     can't leak NaN into BENCH JSON. *)
  Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) samples;
  let finite =
    Array.of_list
      (List.filter (fun (r, _, _) -> Float.is_finite r) (Array.to_list samples))
  in
  let pool = if Array.length finite > 0 then finite else samples in
  let ratio, p_cpu, t_cpu = pool.(Array.length pool / 2) in
  ( Option.get !plain_result,
    Option.get !tel_result,
    p_cpu,
    t_cpu,
    100.0 *. (ratio -. 1.0) )

let micro_mask_apply () =
  let mask = Mask.make [ (Field.Ip_dst, 0xFFFFFF00); (Field.Tp_dst, 0xFFFF) ] in
  let flow = Flow.make [ (Field.Ip_dst, 0x0A000001); (Field.Tp_dst, 443) ] in
  let iters = 400_000 in
  (* The seed's Mask.apply: flow -> array -> masked array -> re-truncating
     Flow.of_array (two copies + a truncate pass). *)
  let ma = Array.init Field.count (fun i -> Mask.get mask (Field.of_index i)) in
  let naive () =
    let fa = Flow.to_array flow in
    ignore (Flow.of_array (Array.init Field.count (fun i -> fa.(i) land ma.(i))))
  in
  let opt () = ignore (Mask.apply mask flow) in
  repeat_best naive iters /. repeat_best opt iters

let micro_commit_apply () =
  let commit = [ (Field.Eth_dst, 0xBEEF); (Field.Vlan, 7); (Field.Tp_dst, 80) ] in
  let flow = Flow.make [ (Field.Ip_dst, 0x0A000001) ] in
  let iters = 400_000 in
  let naive () =
    ignore (List.fold_left (fun f (field, v) -> Flow.set f field v) flow commit)
  in
  let opt () = ignore (Flow.update flow commit) in
  repeat_best naive iters /. repeat_best opt iters

let micro_flow_table () =
  let rng = Gf_util.Rng.create 7 in
  let flows =
    Array.init 4096 (fun _ ->
        Flow.make
          [
            (Field.Ip_src, Gf_util.Rng.int rng 0x7FFFFFFF);
            (Field.Ip_dst, Gf_util.Rng.int rng 0x7FFFFFFF);
            (Field.Tp_src, Gf_util.Rng.int rng 0xFFFF);
          ])
  in
  let poly : (Flow.t, int) Hashtbl.t = Hashtbl.create 4096 in
  let mono : int Flow.Tbl.t = Flow.Tbl.create 4096 in
  Array.iteri (fun i f -> Hashtbl.replace poly f i) flows;
  Array.iteri (fun i f -> Flow.Tbl.replace mono f i) flows;
  let iters = 300 in
  let naive () = Array.iter (fun f -> ignore (Hashtbl.find_opt poly f)) flows in
  let opt () = Array.iter (fun f -> ignore (Flow.Tbl.find_opt mono f)) flows in
  repeat_best naive iters /. repeat_best opt iters

(* ------------------------------ JSON ------------------------------ *)

let buf = Buffer.create 4096

let j fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let jfloat v = if Float.is_nan v then "null" else Printf.sprintf "%.4f" v

let () =
  let spec =
    [
      ("--scale", Arg.Set_float scale, "F  scale workload sizes by F (default 0.25)");
      ("--seed", Arg.Set_int seed, "N  master random seed (default 42)");
      ("--out", Arg.Set_string out, "FILE  output JSON path (default BENCH_throughput.json)");
      ( "--telemetry-out",
        Arg.Set_string telemetry_out,
        "FILE  also dump the instrumented run's telemetry JSONL (default: discard)" );
    ]
  in
  Arg.parse spec (fun _ -> ()) "gigaflow throughput benchmark";
  let t_start = now () in
  say "Throughput benchmark: seed %d, scale %.2f, host cores %d" !seed !scale
    (Domain.recommended_domain_count ());
  let info = Option.get (Catalog.find "PSC") in
  let w =
    Pipebench.make ~combos:(scaled 131_072) ~unique_flows:(scaled 100_000)
      ~duration:60.0 ~info ~locality:Ruleset.High ~seed:!seed ()
  in
  let pipeline = Pipebench.pipeline w in
  let trace = w.Pipebench.trace in
  say "Workload: PSC/high, %d packets, %d flows" (Trace.packet_count trace)
    trace.Trace.unique_flows;
  let scaled_gf = Gf_core.Config.v ~tables:4 ~table_capacity:(scaled 8192) () in
  let mf_cfg = Datapath.emc_mf_sw ~mf_capacity:(scaled 32_768) () in
  let gf_cfg = Datapath.emc_gf_sw ~gf:scaled_gf () in
  j "{\n";
  j "  \"meta\": {\"seed\": %d, \"scale\": %s, \"commit\": \"%s\", \"pipeline\": \"PSC\", \"locality\": \"high\",\n"
    !seed (jfloat !scale) (git_commit ());
  j "           \"packets\": %d, \"unique_flows\": %d, \"host_cores\": %d},\n"
    (Trace.packet_count trace) trace.Trace.unique_flows
    (Domain.recommended_domain_count ());
  let backends = [ ("megaflow", mf_cfg); ("gigaflow", gf_cfg) ] in
  j "  \"sequential\": {\n";
  let seq_runs =
    List.mapi
      (fun bi (name, cfg) ->
        let r = run_sequential cfg pipeline trace in
        say "  [seq] %s: %.2fs, %.0f pps, hit %.2f%%" name r.wall r.pps
          (100.0 *. Metrics.hw_hit_rate r.metrics);
        j "    \"%s\": {\"wall_seconds\": %s, \"packets_per_second\": %s, \"hw_hit_rate\": %s}%s\n"
          name (jfloat r.wall) (jfloat r.pps)
          (jfloat (Metrics.hw_hit_rate r.metrics))
          (if bi = List.length backends - 1 then "" else ",");
        (name, r))
      backends
  in
  j "  },\n";
  j "  \"parallel\": [\n";
  let n_rows = List.length backends * List.length domain_counts in
  let row = ref 0 in
  List.iter
    (fun (name, cfg) ->
      let seq = List.assoc name seq_runs in
      List.iter
        (fun domains ->
          let p = run_parallel cfg pipeline trace ~domains ~seq_wall:seq.wall in
          say "  [par] %s x%d: critical path %.2fs, speedup %.2fx (wall %.2fx), \
               imbalance %.2f, merged ok: %b"
            name domains p.critical_path p.speedup p.wall_speedup p.imbalance
            p.matches_sequential_mode;
          incr row;
          j "    {\"backend\": \"%s\", \"domains\": %d, \"critical_path_seconds\": %s,\n"
            name domains (jfloat p.critical_path);
          j "     \"domains_wall_seconds\": %s, \"speedup\": %s, \"wall_speedup\": %s,\n"
            (jfloat p.domains_wall) (jfloat p.speedup) (jfloat p.wall_speedup);
          j "     \"packets_per_second\": %s, \"load_imbalance\": %s, \"hw_hit_rate\": %s,\n"
            (jfloat p.merged_pps) (jfloat p.imbalance) (jfloat p.hit_rate);
          j "     \"domains_match_sequential_mode\": %b}%s\n" p.matches_sequential_mode
            (if !row = n_rows then "" else ",");
        )
        domain_counts)
    backends;
  j "  ],\n";
  (* Hierarchy sweep: every named preset end-to-end on the same trace, with
     the per-level hit-rate breakdown (where in the hierarchy packets are
     absorbed). *)
  say "  [hierarchies] preset sweep (%s)" (String.concat ", " Datapath.preset_names);
  j "  \"hierarchies\": [\n";
  let n_presets = List.length Datapath.preset_names in
  List.iteri
    (fun pi name ->
      let cfg =
        Option.get
          (Datapath.preset ~gf:scaled_gf ~mf_capacity:(scaled 32_768) name)
      in
      let r = run_sequential cfg pipeline trace in
      say "  [hier] %-10s %.2fs, %.0f pps, hw hit %.2f%%" name r.wall r.pps
        (100.0 *. Metrics.hw_hit_rate r.metrics);
      Format.printf "%a%!" Metrics.pp_levels r.metrics;
      j "    {\"name\": \"%s\", \"wall_seconds\": %s, \"packets_per_second\": %s,\n"
        name (jfloat r.wall) (jfloat r.pps);
      j "     \"hw_hit_rate\": %s, \"slowpaths\": %d, \"levels\": [\n"
        (jfloat (Metrics.hw_hit_rate r.metrics))
        r.metrics.Metrics.slowpaths;
      let levels = Metrics.levels r.metrics in
      List.iteri
        (fun li (l : Metrics.level) ->
          j "      {\"name\": \"%s\", \"hits\": %d, \"misses\": %d, \"hit_rate\": %s, \
             \"installs\": %d, \"evictions\": %d, \"occupancy_peak\": %d}%s\n"
            l.Metrics.level_name l.Metrics.hits l.Metrics.misses
            (jfloat (Metrics.level_hit_rate l))
            l.Metrics.installs l.Metrics.evictions l.Metrics.occupancy_peak
            (if li = List.length levels - 1 then "" else ","))
        levels;
      j "    ]}%s\n" (if pi = n_presets - 1 then "" else ","))
    Datapath.preset_names;
  j "  ],\n";
  say "  [micro] hot-path A/B (old/new time ratio, >1 = faster now)";
  let m_mask = micro_mask_apply () in
  let m_commit = micro_commit_apply () in
  let m_tbl = micro_flow_table () in
  say "  [micro] mask_apply %.2fx, commit_apply %.2fx, flow_hashtbl %.2fx" m_mask
    m_commit m_tbl;
  j "  \"sequential_path_micro_speedups\": {\n";
  j "    \"mask_apply\": %s,\n" (jfloat m_mask);
  j "    \"commit_apply\": %s,\n" (jfloat m_commit);
  j "    \"flow_hashtbl_lookup\": %s\n" (jfloat m_tbl);
  j "  },\n";
  (* Telemetry overhead: the gigaflow sequential replay again, with the full
     telemetry stack on (registry + time-series sampler + flight recorder),
     against the telemetry-off run.  The instrumented run must produce
     identical metrics — telemetry observes, never perturbs.  Both sides are
     timed by [paired_overhead]: interleaved pairs on CPU time, median of
     the per-pair ratios. *)
  say "  [telemetry] instrumented gigaflow replay (overhead vs telemetry-off)";
  let full_tel_config =
    {
      Gf_telemetry.Telemetry.sample_every = 10_000;
      event_capacity = 4096;
      event_sample_every = 16;
      trace_sample_every = 0;
    }
  in
  let base_metrics, (tm, tel), base_cpu, tel_cpu, overhead_pct =
    paired_overhead
      (fun () ->
        Datapath.run
          (Datapath.create gf_cfg (Gf_pipeline.Pipeline.copy pipeline))
          trace)
      (fun () ->
        let tel = Gf_telemetry.Telemetry.create ~config:full_tel_config () in
        let dp =
          Datapath.create ~telemetry:tel gf_cfg
            (Gf_pipeline.Pipeline.copy pipeline)
        in
        (Datapath.run dp trace, tel))
  in
  let tel_pps = float_of_int tm.Metrics.packets /. tel_cpu in
  let base_pps = float_of_int base_metrics.Metrics.packets /. base_cpu in
  let n_samples = List.length (Gf_telemetry.Telemetry.samples tel) in
  let n_events = List.length (Gf_telemetry.Telemetry.events tel) in
  let matches = counters tm = counters base_metrics in
  say
    "  [telemetry] %.2fs cpu, %.0f pps (off: %.0f pps, overhead %.1f%%), %d \
     samples, %d events, metrics match: %b"
    tel_cpu tel_pps base_pps overhead_pct n_samples n_events matches;
  if !telemetry_out <> "" then begin
    let oc = open_out !telemetry_out in
    Gf_telemetry.Telemetry.write_jsonl oc tel;
    close_out oc;
    say "  [telemetry] wrote %s" !telemetry_out
  end;
  j "  \"telemetry\": {\"cpu_seconds\": %s, \"packets_per_second\": %s,\n"
    (jfloat tel_cpu) (jfloat tel_pps);
  j "   \"baseline_cpu_seconds\": %s, \"baseline_pps\": %s, \"overhead_pct\": %s,\n"
    (jfloat base_cpu) (jfloat base_pps) (jfloat overhead_pct);
  j "   \"samples\": %d, \"events\": %d, \"matches_baseline_metrics\": %b},\n"
    n_samples n_events matches;
  (* Streaming engine: the batched push-based datapath (SPSC rings into
     long-lived worker domains, per-flow memo replay, per-batch telemetry
     and expiry amortisation) against the per-packet hierarchy walker, on a
     steady-state Zipf stream — the regime where a real vSwitch datapath
     spends its life and where per-packet dispatch overhead dominates.
     Each timed run gets a compacted heap and best-of-2 (allocator state
     left behind by earlier bench sections otherwise contaminates walls). *)
  say "  [streaming] batched engine vs per-packet walker (steady Zipf stream)";
  let stream_packets = scaled 8_000_000 in
  let stream_batch = 1024 and stream_ring = 16 in
  let stream_w =
    Pipebench.make ~combos:(scaled 26_212) ~unique_flows:5000 ~duration:10.0
      ~info ~locality:Ruleset.High ~seed:7 ()
  in
  let timed_best ?(repeats = 2) f =
    let best = ref infinity and result = ref None in
    for _ = 1 to repeats do
      Gc.compact ();
      let t0 = now () in
      let r = f () in
      let w = now () -. t0 in
      if w < !best then begin
        best := w;
        result := Some r
      end
    done;
    (Option.get !result, !best)
  in
  let stream_regimes =
    (* Megaflow's exact-match regime wants the full 5k-flow working set
       (stresses the memo table); Gigaflow's wants a tighter, hotter one. *)
    [
      ("emc_mf_sw", Datapath.emc_mf_sw (), 5000, 1.05);
      ("emc_gf_sw", Datapath.emc_gf_sw (), 2000, 1.2);
    ]
  in
  let stream_domains = [ 1; 2; 4 ] in
  j "  \"streaming\": {\n";
  j "    \"meta\": {\"packets\": %d, \"batch_size\": %d, \"ring_depth\": %d,\n"
    stream_packets stream_batch stream_ring;
  j "             \"unique_flows\": 5000, \"seed\": 7},\n";
  j "    \"rows\": [\n";
  let stream_pipeline = Pipebench.pipeline stream_w in
  let straces = ref [] in
  List.iteri
    (fun ri (preset, cfg, nflows, zipf_s) ->
      let flows = Array.sub stream_w.Pipebench.flows 0 nflows in
      let strace =
        Trace.trace_of_stream
          (Trace.steady ~duration:10.0 ~zipf_s ~packets:stream_packets ~seed:7
             ~flows ())
      in
      let wm, w_wall =
        timed_best (fun () ->
            Datapath.run
              (Datapath.create cfg (Gf_pipeline.Pipeline.copy stream_pipeline))
              strace)
      in
      let w_pps = float_of_int wm.Metrics.packets /. w_wall in
      say "  [streaming] %s walker: %.2fs, %.0f pps" preset w_wall w_pps;
      straces := (preset, strace) :: !straces;
      j "      {\"preset\": \"%s\", \"zipf_s\": %s, \"flows\": %d,\n" preset
        (jfloat zipf_s) nflows;
      j "       \"walker_wall_seconds\": %s, \"walker_pps\": %s, \"engine\": [\n"
        (jfloat w_wall) (jfloat w_pps);
      List.iteri
        (fun di domains ->
          (* The determinism reference shares the engine's flow sharding:
             sequential sharded replay at the same domain count. *)
          let seq_ref = Parallel.replay ~domains ~cfg stream_pipeline strace in
          let r, e_wall =
            timed_best (fun () ->
                Engine.replay ~batch_size:stream_batch ~domains
                  ~ring_depth:stream_ring ~cfg stream_pipeline
                  (Trace.stream_of_trace strace))
          in
          let m = r.Parallel.merged in
          let e_pps = float_of_int m.Metrics.packets /. e_wall in
          let speedup = w_wall /. e_wall in
          let matches = counters m = counters seq_ref.Parallel.merged in
          say
            "  [streaming] %s engine d=%d: %.2fs, %.0f pps, %.2fx vs walker, \
             matches sequential: %b"
            preset domains e_wall e_pps speedup matches;
          j "        {\"domains\": %d, \"wall_seconds\": %s, \
             \"packets_per_second\": %s,\n"
            domains (jfloat e_wall) (jfloat e_pps);
          j "         \"speedup_vs_walker\": %s, \"wall_speedup\": %s, \
             \"critical_path_seconds\": %s,\n"
            (jfloat speedup) (jfloat speedup)
            (jfloat r.Parallel.critical_path_seconds);
          j "         \"matches_sequential\": %b}%s\n" matches
            (if di = List.length stream_domains - 1 then "" else ","))
        stream_domains;
      j "      ]}%s\n" (if ri = List.length stream_regimes - 1 then "" else ","))
    stream_regimes;
  j "    ],\n";
  (* Per-batch telemetry amortisation: the walker checks the sampling
     cadence per packet; the engine once per batch.  Same stream, same
     telemetry config — the overhead each pays over its own uninstrumented
     run is the before/after of the pull-model telemetry claim.  Both
     sides of each comparison go through [paired_overhead] (interleaved
     pairs on CPU time, median of per-pair ratios): a baseline borrowed
     from the rows section above, or a sequential wall-clock median, was
     measured against a different allocator state or a drifted clock and
     regularly produced double-digit phantom "overhead" in either
     direction. *)
  say "  [streaming] telemetry amortisation (per-packet vs per-batch cadence)";
  let tel_config =
    {
      Gf_telemetry.Telemetry.sample_every = 10_000;
      event_capacity = 4096;
      event_sample_every = 0;
      trace_sample_every = 0;
    }
  in
  j "    \"telemetry_amortisation\": [\n";
  List.iteri
    (fun ri (preset, cfg, _, _) ->
      let strace = List.assoc preset !straces in
      let _, _, walker_plain_cpu, walker_tel_cpu, walker_overhead_pct =
        paired_overhead
          (fun () ->
            Datapath.run
              (Datapath.create cfg (Gf_pipeline.Pipeline.copy stream_pipeline))
              strace)
          (fun () ->
            Datapath.run
              (Datapath.create
                 ~telemetry:(Gf_telemetry.Telemetry.create ~config:tel_config ())
                 cfg
                 (Gf_pipeline.Pipeline.copy stream_pipeline))
              strace)
      in
      (* The engine replays the stream several times per timed side (its
         single pass is ~10x shorter than the walker's, which leaves a
         sub-percent effect under the per-pair CPU jitter) and gets more
         pairs to median over. *)
      let engine_reps = 3 in
      let _, _, engine_plain_cpu, engine_tel_cpu, engine_overhead_pct =
        paired_overhead ~pairs:9
          (fun () ->
            for _ = 2 to engine_reps do
              ignore
                (Engine.replay ~batch_size:stream_batch ~domains:1 ~cfg
                   stream_pipeline
                   (Trace.stream_of_trace strace))
            done;
            Engine.replay ~batch_size:stream_batch ~domains:1 ~cfg
              stream_pipeline
              (Trace.stream_of_trace strace))
          (fun () ->
            for _ = 2 to engine_reps do
              ignore
                (Engine.replay ~telemetry:tel_config ~batch_size:stream_batch
                   ~domains:1 ~cfg stream_pipeline
                   (Trace.stream_of_trace strace))
            done;
            Engine.replay ~telemetry:tel_config ~batch_size:stream_batch
              ~domains:1 ~cfg stream_pipeline
              (Trace.stream_of_trace strace))
      in
      say
        "  [streaming] %s telemetry overhead: walker %.1f%% (%.2fs -> %.2fs \
         cpu), engine %.1f%% (%.2fs -> %.2fs cpu)"
        preset walker_overhead_pct walker_plain_cpu walker_tel_cpu
        engine_overhead_pct engine_plain_cpu engine_tel_cpu;
      j "      {\"preset\": \"%s\",\n" preset;
      j "       \"walker_cpu_seconds\": %s, \"walker_telemetry_cpu_seconds\": %s,\n"
        (jfloat walker_plain_cpu) (jfloat walker_tel_cpu);
      j "       \"engine_cpu_seconds\": %s, \"engine_telemetry_cpu_seconds\": %s,\n"
        (jfloat engine_plain_cpu) (jfloat engine_tel_cpu);
      j "       \"walker_overhead_pct\": %s, \"engine_overhead_pct\": %s}%s\n"
        (jfloat walker_overhead_pct) (jfloat engine_overhead_pct)
        (if ri = List.length stream_regimes - 1 then "" else ","))
    stream_regimes;
  j "    ],\n";
  (* Traversal-tracer overhead: spans at --sample 1/256 plus the
     always-on miss-cause census, against the same telemetry config with
     tracing off.  The per-packet cost when not sampled is one countdown
     decrement plus (on a miss) one census increment, so the figure must
     sit inside the paired-CPU noise gate on both presets. *)
  say "  [streaming] traversal tracer overhead (--sample 1/256)";
  let trace_config =
    { tel_config with Gf_telemetry.Telemetry.trace_sample_every = 256 }
  in
  j "    \"profile_overhead\": [\n";
  List.iteri
    (fun ri (preset, cfg, _, _) ->
      let strace = List.assoc preset !straces in
      let walker tel () =
        Datapath.run
          (Datapath.create
             ~telemetry:(Gf_telemetry.Telemetry.create ~config:tel ())
             cfg
             (Gf_pipeline.Pipeline.copy stream_pipeline))
          strace
      in
      (* Same repetition hygiene as the amortisation rows: one engine
         pass is too short to resolve a sub-percent effect. *)
      let engine tel () =
        for _ = 2 to 4 do
          ignore
            (Engine.replay ~telemetry:tel ~batch_size:stream_batch ~domains:1
               ~cfg stream_pipeline
               (Trace.stream_of_trace strace))
        done;
        Engine.replay ~telemetry:tel ~batch_size:stream_batch ~domains:1 ~cfg
          stream_pipeline
          (Trace.stream_of_trace strace)
      in
      let _, _, walker_off_cpu, walker_on_cpu, walker_trace_overhead_pct =
        paired_overhead (walker tel_config) (walker trace_config)
      in
      let _, _, engine_off_cpu, engine_on_cpu, engine_trace_overhead_pct =
        paired_overhead ~pairs:9 (engine tel_config) (engine trace_config)
      in
      say
        "  [streaming] %s tracer overhead: walker %.1f%% (%.2fs -> %.2fs \
         cpu), engine %.1f%% (%.2fs -> %.2fs cpu)"
        preset walker_trace_overhead_pct walker_off_cpu walker_on_cpu
        engine_trace_overhead_pct engine_off_cpu engine_on_cpu;
      j "      {\"preset\": \"%s\", \"trace_sample_every\": 256,\n" preset;
      j "       \"walker_cpu_seconds\": %s, \"walker_traced_cpu_seconds\": %s,\n"
        (jfloat walker_off_cpu) (jfloat walker_on_cpu);
      j "       \"engine_cpu_seconds\": %s, \"engine_traced_cpu_seconds\": %s,\n"
        (jfloat engine_off_cpu) (jfloat engine_on_cpu);
      j "       \"walker_trace_overhead_pct\": %s, \
         \"engine_trace_overhead_pct\": %s}%s\n"
        (jfloat walker_trace_overhead_pct) (jfloat engine_trace_overhead_pct)
        (if ri = List.length stream_regimes - 1 then "" else ","))
    stream_regimes;
  j "    ]\n";
  j "  },\n";
  (* Capacity sweep: hit rate vs capacity, Megaflow vs Gigaflow, under each
     replacement policy, on a churn trace.  The rotating flow population keeps
     every fixed capacity under sustained install pressure — the regime where
     the choice of eviction policy shows up in the hit rate. *)
  say "  [capacity] churn sweep: hit rate vs capacity per eviction policy";
  let churn_w =
    Pipebench.make_churn ~combos:(scaled 131_072) ~unique_flows:(scaled 100_000)
      ~active:(scaled 2048) ~packets_per_epoch:(scaled 8192) ~info
      ~locality:Ruleset.High ~seed:!seed ()
  in
  let churn_pipeline = Pipebench.pipeline churn_w in
  let churn_trace = churn_w.Pipebench.trace in
  say "  [capacity] churn trace: %d packets, active window %d"
    (Trace.packet_count churn_trace) (scaled 2048);
  let caps = [ scaled 256; scaled 512; scaled 1024; scaled 2048 ] in
  let policies = Gf_cache.Evict.all in
  j "  \"capacity_sweep\": {\n";
  j "    \"meta\": {\"trace\": \"churn\", \"packets\": %d, \"active_flows\": %d,\n"
    (Trace.packet_count churn_trace) (scaled 2048);
  j "             \"turnover\": 0.25, \"capacities\": [%s]},\n"
    (String.concat ", " (List.map string_of_int caps));
  j "    \"rows\": [\n";
  let n_rows = 2 * List.length caps * List.length policies in
  let row = ref 0 in
  List.iter
    (fun (backend, preset_name) ->
      List.iter
        (fun cap ->
          List.iter
            (fun policy ->
              let cfg =
                Option.get
                  (Datapath.preset
                     ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:cap ())
                     ~mf_capacity:(4 * cap) ~policy preset_name)
              in
              let r = run_sequential cfg churn_pipeline churn_trace in
              say "  [capacity] %-8s cap %5d %-8s: hit %.2f%%, pressure evictions %d"
                backend cap
                (Gf_cache.Evict.to_string policy)
                (100.0 *. Metrics.hw_hit_rate r.metrics)
                r.metrics.Metrics.hw_pressure_evictions;
              incr row;
              j "      {\"backend\": \"%s\", \"table_capacity\": %d, \"policy\": \"%s\",\n"
                backend cap
                (Gf_cache.Evict.to_string policy);
              j "       \"hw_hit_rate\": %s, \"pressure_evictions\": %d, \"slowpaths\": %d}%s\n"
                (jfloat (Metrics.hw_hit_rate r.metrics))
                r.metrics.Metrics.hw_pressure_evictions r.metrics.Metrics.slowpaths
                (if !row = n_rows then "" else ","))
            policies)
        caps)
    [ ("megaflow", "mf_sw"); ("gigaflow", "gf_sw") ];
  j "    ]\n";
  j "  },\n";
  (* Skew-aware admission: constrained hardware capacity on elephant/mice
     and drifting-skew traces — heavy-hitter admission [mf_sw_hh/gf_sw_hh]
     vs install-on-miss with the Reject pressure policy [mf_sw/gf_sw] vs
     install-on-miss with LRU, per backend.  The geometries are
     deliberately tight (slots << elephants + mice churn): with room to
     spare install-on-miss also captures the elephants eventually and
     admission has nothing left to earn. *)
  say "  [offload] heavy-hitter admission vs reject/LRU under constrained HW";
  let ele_w =
    Pipebench.make_elephant ~combos:8192 ~unique_flows:20_000 ~info
      ~locality:Ruleset.High ~seed:!seed ()
  in
  let drift_w =
    Pipebench.make_drift ~combos:8192 ~unique_flows:20_000 ~info
      ~locality:Ruleset.High ~seed:!seed ()
  in
  let offload_geoms =
    [
      ("megaflow", "elephant", 1, 16, ele_w);
      ("megaflow", "drift", 1, 64, drift_w);
      ("gigaflow", "elephant", 2, 8, ele_w);
      ("gigaflow", "drift", 2, 8, drift_w);
    ]
  in
  let offload_run cfg pipeline trace =
    (* End-to-end pps here is the *modeled* datapath rate — the reciprocal
       of simulated mean per-packet latency — which is deterministic in
       the seed.  Simulator wall clock (how fast OCaml replays 32k
       packets) is kept as reference only: at these trace sizes it is
       scheduler noise, and it measures the simulator, not the system
       under study.  Timing hygiene as in the streaming section. *)
    let metrics, wall =
      timed_best ~repeats:3 (fun () ->
          Datapath.run
            (Datapath.create cfg (Gf_pipeline.Pipeline.copy pipeline))
            trace)
    in
    let modeled_pps = 1e6 /. Metrics.mean_latency_us metrics in
    (metrics, modeled_pps, float_of_int metrics.Metrics.packets /. wall)
  in
  j "  \"offload\": {\n";
  j "    \"meta\": {\"elephants\": 16, \"elephant_share\": 0.8, \"drift_epochs\": 8,\n";
  j "             \"drift\": 64, \"unique_flows\": 20000, \"seed\": %d},\n" !seed;
  j "    \"rows\": [\n";
  let n_rows = 3 * List.length offload_geoms in
  let row = ref 0 in
  List.iter
    (fun (backend, tracename, tables, cap, w) ->
      let off_pipeline = Pipebench.pipeline w in
      let off_trace = w.Pipebench.trace in
      let gf = Gf_core.Config.v ~tables ~table_capacity:cap () in
      let mk name =
        Option.get (Datapath.preset ~gf ~mf_capacity:(tables * cap) name)
      in
      let hh_name, base_name =
        if backend = "megaflow" then ("mf_sw_hh", "mf_sw") else ("gf_sw_hh", "gf_sw")
      in
      List.iter
        (fun (variant, cfg) ->
          let m, modeled_pps, wall_pps = offload_run cfg off_pipeline off_trace in
          let seq_ref = Parallel.replay ~domains:2 ~cfg off_pipeline off_trace in
          let par =
            Engine.replay ~domains:2 ~cfg off_pipeline
              (Trace.stream_of_trace off_trace)
          in
          let matches = counters par.Parallel.merged = counters seq_ref.Parallel.merged in
          say
            "  [offload] %-8s %-8s %dx%-3d %-7s: hw hit %6.2f%%, %.0f pps \
             (modeled), mean lat %.2f us, deferred %d, demoted %d, merged ok: %b"
            backend tracename tables cap variant
            (100.0 *. Metrics.hw_hit_rate m)
            modeled_pps (Metrics.mean_latency_us m) m.Metrics.hw_deferred
            m.Metrics.hw_demotions matches;
          incr row;
          j "      {\"backend\": \"%s\", \"trace\": \"%s\", \"tables\": %d, \
             \"table_capacity\": %d,\n"
            backend tracename tables cap;
          j "       \"admission\": \"%s\", \"policy\": \"%s\", \"hw_hit_rate\": %s,\n"
            variant
            (Gf_offload.Heavy_hitter.policy_to_string cfg.Datapath.admission)
            (jfloat (Metrics.hw_hit_rate m));
          j "       \"modeled_pps\": %s, \"sim_wall_pps\": %s, \
             \"mean_latency_us\": %s, \"slowpaths\": %d,\n"
            (jfloat modeled_pps) (jfloat wall_pps)
            (jfloat (Metrics.mean_latency_us m))
            m.Metrics.slowpaths;
          j "       \"hw_deferred\": %d, \"hw_demotions\": %d, \
             \"matches_sequential\": %b}%s\n"
            m.Metrics.hw_deferred m.Metrics.hw_demotions matches
            (if !row = n_rows then "" else ","))
        [
          ("hh", mk hh_name);
          ("reject", mk base_name);
          ("lru", Datapath.with_policy Gf_cache.Evict.Lru (mk base_name));
        ])
    offload_geoms;
  j "    ]\n";
  j "  },\n";
  (* Adaptive SLO control: the drifting-skew loadtest where the frozen
     Reject NIC decays below the hit-rate floor while the controller —
     observing each window's SLO verdict plus the miss-cause census —
     flips the NIC to LRU at warmup close and keeps every measured
     window clean.  Same scenario as the check.sh control smoke and the
     EXPERIMENTS.md table; windows here are deterministic in the seed,
     not wall-clock timed. *)
  say "  [control] adaptive SLO controller vs static config under drift";
  let module Loadtest = Gf_engine.Loadtest in
  let module Controller = Gf_control.Controller in
  let module Telemetry = Gf_telemetry.Telemetry in
  let ctl_w =
    Pipebench.make ~combos:8192 ~unique_flows:20_000 ~info
      ~locality:Ruleset.High ~seed:!seed ()
  in
  let ctl_warmup = 20_000 and ctl_window = 20_000 and ctl_windows = 3 in
  let ctl_slo = { Loadtest.default_slo with Loadtest.slo_p50_us = 50.0 } in
  let ctl_cfg =
    Datapath.gf_sw_hh ~gf:(Gf_core.Config.v ~tables:2 ~table_capacity:128 ()) ()
  in
  let ctl_run controller =
    let packets = ctl_warmup + (ctl_windows * ctl_window) in
    let stream =
      Trace.stream_of_trace
        (Trace.drifting_skew ~epochs:6 ~zipf_s:1.2 ~drift:128
           ~packets_per_epoch:((packets + 5) / 6) ~seed:(!seed + 1)
           ~flows:ctl_w.Pipebench.flows ())
    in
    let c = Option.map (fun () -> Controller.create ()) controller in
    let telemetry =
      Option.map
        (fun _ ->
          Telemetry.create
            ~config:
              {
                Telemetry.default_config with
                sample_every = 0;
                event_sample_every = 0;
                trace_sample_every = 1 lsl 30;
              }
            ())
        c
    in
    let r =
      Loadtest.run ?telemetry
        ?controller:(Option.map (fun c dp wr -> Controller.on_window c dp wr) c)
        ~warmup:ctl_warmup ~window:ctl_window ~windows:ctl_windows ~rate:1e5
        ~slo:ctl_slo ctl_cfg (Pipebench.pipeline ctl_w) stream
    in
    (r, match c with None -> [] | Some c -> Controller.actions c)
  in
  let ctl_static, _ = ctl_run None in
  let ctl_driven, ctl_actions = ctl_run (Some ()) in
  let ctl_json tag (r : Loadtest.report) =
    j "    \"%s\": {\"pass\": %b, \"windows\": [\n" tag r.Loadtest.pass;
    let n = List.length r.Loadtest.windows in
    List.iteri
      (fun i (wr : Loadtest.window) ->
        j "      {\"index\": %d, \"hw_hit_rate\": %s, \"p50_us\": %s, \
           \"drop_rate\": %s, \"violations\": %d}%s\n"
          wr.Loadtest.w_index
          (jfloat wr.Loadtest.w_hw_hit_rate)
          (jfloat wr.Loadtest.w_p50_us)
          (jfloat wr.Loadtest.w_drop_rate)
          (List.length wr.Loadtest.w_violations)
          (if i = n - 1 then "" else ","))
      r.Loadtest.windows;
    j "    ]}"
  in
  say "  [control] static: %s, controlled: %s (%d actions)"
    (if ctl_static.Loadtest.pass then "PASS" else "FAIL")
    (if ctl_driven.Loadtest.pass then "PASS" else "FAIL")
    (List.length ctl_actions);
  List.iter
    (fun (a : Controller.action) ->
      say "  [control]   window %d: %s %s %s -> %s" a.Controller.act_window
        a.Controller.act_knob a.Controller.act_level a.Controller.act_from
        a.Controller.act_to)
    ctl_actions;
  j "  \"control\": {\n";
  j "    \"meta\": {\"trace\": \"drift\", \"epochs\": 6, \"drift\": 128, \
     \"zipf_s\": 1.2, \"rate_pps\": 100000,\n";
  j "             \"warmup\": %d, \"window\": %d, \"windows\": %d, \
     \"slo_p50_us\": 50.0, \"seed\": %d},\n"
    ctl_warmup ctl_window ctl_windows !seed;
  ctl_json "static" ctl_static;
  j ",\n";
  ctl_json "controlled" ctl_driven;
  j ",\n";
  j "    \"actions\": [\n";
  let na = List.length ctl_actions in
  List.iteri
    (fun i (a : Controller.action) ->
      j "      {\"window\": %d, \"knob\": %s, \"level\": %s, \"from\": %s, \
         \"to\": %s}%s\n"
        a.Controller.act_window
        (Gf_util.Json.to_string (Gf_util.Json.Str a.Controller.act_knob))
        (Gf_util.Json.to_string (Gf_util.Json.Str a.Controller.act_level))
        (Gf_util.Json.to_string (Gf_util.Json.Str a.Controller.act_from))
        (Gf_util.Json.to_string (Gf_util.Json.Str a.Controller.act_to))
        (if i = na - 1 then "" else ","))
    ctl_actions;
  j "    ]\n";
  j "  },\n";
  j "  \"total_bench_seconds\": %s\n" (jfloat (now () -. t_start));
  j "}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  say "Wrote %s (total %.0fs)" !out (now () -. t_start)
