(* Tests for gigaflow.telemetry: histogram quantile accuracy against an
   exact oracle, exact merge, flight-recorder ring/sampling semantics,
   series cadence, registry merge, exporters, the datapath/parallel
   integration invariants (telemetry observes, never perturbs), and the
   line schema every emitter writes and telemetry-check enforces. *)

module Histogram = Gf_telemetry.Histogram
module Recorder = Gf_telemetry.Recorder
module Series = Gf_telemetry.Series
module Registry = Gf_telemetry.Registry
module Export = Gf_telemetry.Export
module Telemetry = Gf_telemetry.Telemetry
module Json = Gf_util.Json
module Datapath = Gf_sim.Datapath
module Parallel = Gf_sim.Parallel
module Metrics = Gf_sim.Metrics
module Pipebench = Gf_workload.Pipebench
module Ruleset = Gf_workload.Ruleset
module Catalog = Gf_pipelines.Catalog

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ----------------------------- histogram ----------------------------- *)

(* Exact rank-based order statistic matching Histogram.quantile's rank
   definition: the ceil(q * n)-th smallest sample (1-based). *)
let exact_quantile samples q =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(min (n - 1) (rank - 1))

let check_quantile_in_bucket h samples q =
  let exact = exact_quantile samples q in
  let approx = Histogram.quantile h q in
  let blo, bhi = Histogram.bounds_of_value h exact in
  Alcotest.(check bool)
    (Printf.sprintf "q=%g: approx %g in bucket [%g, %g) of exact %g" q approx
       blo bhi exact)
    true
    (approx >= blo && approx <= bhi)

let quantile_points = [ 0.5; 0.9; 0.99; 0.999 ]

let test_histogram_quantiles_vs_oracle () =
  let rng = Gf_util.Rng.create 11 in
  (* Long-tailed sample stream spanning several octaves, like latencies. *)
  let samples =
    Array.init 5000 (fun _ ->
        let u = Gf_util.Rng.float rng 1.0 in
        0.5 +. (1000.0 *. (u ** 4.0)))
  in
  let h = Histogram.create ~lo:0.1 ~hi:1e5 () in
  Array.iter (Histogram.record h) samples;
  Alcotest.(check int) "count" (Array.length samples) (Histogram.count h);
  List.iter (fun q -> check_quantile_in_bucket h samples q) quantile_points;
  (* The exact extremes are tracked exactly, not bucketed. *)
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  Alcotest.(check (float 1e-9)) "min exact" sorted.(0) (Histogram.min_value h);
  Alcotest.(check (float 1e-9))
    "max exact"
    sorted.(Array.length sorted - 1)
    (Histogram.max_value h)

let test_histogram_empty_and_edges () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Histogram.mean h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.p99 h);
  (* Underflow and overflow clamp rather than distort. *)
  Histogram.record h 0.0;
  Histogram.record h 1e12;
  Alcotest.(check int) "clamped count" 2 (Histogram.count h);
  Alcotest.(check bool) "p50 finite" true (Float.is_finite (Histogram.p50 h))

let hist_of_samples samples =
  let h = Histogram.create ~lo:0.1 ~hi:1e5 () in
  List.iter (Histogram.record h) samples;
  h

let buckets_of h =
  let acc = ref [] in
  Histogram.iter_buckets (fun ~lo ~hi ~count -> acc := (lo, hi, count) :: !acc) h;
  List.rev !acc

let test_histogram_quantile_edges () =
  (* Out-of-range q clamps into [0, 1], so the rank never exceeds the
     count (and never reads past the last bucket). *)
  let h = hist_of_samples [ 1.0; 2.0; 4.0; 8.0 ] in
  Alcotest.(check (float 1e-9))
    "q > 1 clamps to the max-rank quantile" (Histogram.quantile h 1.0)
    (Histogram.quantile h 42.0);
  Alcotest.(check (float 1e-9))
    "q < 0 clamps to the min-rank quantile" (Histogram.quantile h 0.0)
    (Histogram.quantile h (-3.0));
  Alcotest.(check bool) "q = 1 within exact observed max" true
    (Histogram.quantile h 1.0 <= Histogram.max_value h);
  (* A single sample: every q collapses onto it exactly — the bucket
     representative is clamped into the observed [min, max], which is a
     point. *)
  let one = hist_of_samples [ 37.5 ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single sample q=%g" q)
        37.5 (Histogram.quantile one q))
    [ 0.0; 0.5; 0.999; 1.0; 2.0 ]

let test_histogram_merge_quantiles_vs_sorted_oracle () =
  (* After an exact shard merge, quantiles must still land in the bucket
     of the true (sorted-array) order statistic of the union stream. *)
  let rng = Gf_util.Rng.create 29 in
  let gen n = Array.init n (fun _ -> 0.2 +. Gf_util.Rng.float rng 9000.0) in
  let a = gen 900 and b = gen 450 in
  let ha = hist_of_samples (Array.to_list a)
  and hb = hist_of_samples (Array.to_list b) in
  Histogram.merge ~into:ha hb;
  let union = Array.append a b in
  List.iter
    (fun q -> check_quantile_in_bucket ha union q)
    (0.001 :: quantile_points)

let test_histogram_merge_is_concat () =
  let rng = Gf_util.Rng.create 23 in
  let gen n = List.init n (fun _ -> 0.2 +. Gf_util.Rng.float rng 5000.0) in
  let a = gen 700 and b = gen 1300 in
  let ha = hist_of_samples a and hb = hist_of_samples b in
  let hc = hist_of_samples (a @ b) in
  Histogram.merge ~into:ha hb;
  Alcotest.(check int) "count" (Histogram.count hc) (Histogram.count ha);
  Alcotest.(check (float 1e-6)) "sum" (Histogram.sum hc) (Histogram.sum ha);
  Alcotest.(check (float 1e-9)) "min" (Histogram.min_value hc)
    (Histogram.min_value ha);
  Alcotest.(check (float 1e-9)) "max" (Histogram.max_value hc)
    (Histogram.max_value ha);
  Alcotest.(check bool) "buckets identical" true
    (buckets_of hc = buckets_of ha);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "quantile %g" q)
        (Histogram.quantile hc q) (Histogram.quantile ha q))
    quantile_points

let test_histogram_layout_mismatch () =
  let a = Histogram.create ~lo:0.1 ~hi:1e5 () in
  let b = Histogram.create ~lo:0.2 ~hi:1e5 () in
  Alcotest.(check bool) "layouts differ" false (Histogram.same_layout a b);
  Alcotest.check_raises "merge refuses"
    (Invalid_argument "Histogram.merge: layouts differ") (fun () ->
      Histogram.merge ~into:a b)

let gen_samples =
  QCheck2.Gen.(list_size (1 -- 400) (map (fun u -> 0.05 +. (u *. 2e4)) (float_bound_inclusive 1.0)))

let prop_histogram_quantile_bounded =
  QCheck2.Test.make ~name:"histogram quantile lands in exact sample's bucket"
    ~count:200 gen_samples (fun samples ->
      let arr = Array.of_list samples in
      let h = hist_of_samples samples in
      List.for_all
        (fun q ->
          let exact = exact_quantile arr q in
          let approx = Histogram.quantile h q in
          let blo, bhi = Histogram.bounds_of_value h exact in
          approx >= blo && approx <= bhi)
        quantile_points)

let prop_histogram_merge_exact =
  QCheck2.Test.make ~name:"histogram merge == recording the concatenation"
    ~count:200
    QCheck2.Gen.(pair gen_samples gen_samples)
    (fun (a, b) ->
      let ha = hist_of_samples a and hb = hist_of_samples b in
      let hc = hist_of_samples (a @ b) in
      Histogram.merge ~into:ha hb;
      buckets_of hc = buckets_of ha
      && Histogram.count hc = Histogram.count ha
      && List.for_all
           (fun q ->
             Float.abs (Histogram.quantile hc q -. Histogram.quantile ha q)
             < 1e-9)
           quantile_points)

(* The float aggregates live in an all-float record, so recording writes
   them flat and allocates nothing, with or without a precomputed bucket.
   The samples come pre-boxed from a list. *)
let test_histogram_record_allocation_free () =
  let h = Histogram.create () in
  let xs = List.init 10_000 (fun i -> 0.05 +. (float_of_int (i mod 991) *. 3.7)) in
  let at = List.map (Histogram.index h) xs in
  let rec record = function
    | [] -> ()
    | x :: rest ->
        Histogram.record h x;
        record rest
  in
  let rec record_at is xs =
    match (is, xs) with
    | i :: is, x :: xs ->
        Histogram.record_at h i x;
        record_at is xs
    | _ -> ()
  in
  Alcotest.(check (float 0.)) "record: minor words" 0.
    (Helpers.minor_words (fun () -> record xs));
  Alcotest.(check (float 0.)) "record_at: minor words" 0.
    (Helpers.minor_words (fun () -> record_at at xs));
  Alcotest.(check int) "all recorded" 20_000 (Histogram.count h)

(* ----------------------------- recorder ----------------------------- *)

let offer r n =
  for i = 0 to n - 1 do
    Recorder.record r ~packet:i ~time:(float_of_int i) ~level:"gf"
      ~latency_us:9.0 ~count:1 Recorder.Hit
  done

let test_recorder_ring_keeps_newest () =
  let r = Recorder.create ~capacity:8 ~sample_every:1 () in
  offer r 20;
  Alcotest.(check int) "seen" 20 (Recorder.seen r);
  Alcotest.(check int) "recorded" 20 (Recorder.recorded r);
  Alcotest.(check int) "retained" 8 (Recorder.retained r);
  Alcotest.(check int) "dropped" 12 (Recorder.dropped r);
  let packets = List.map (fun e -> e.Recorder.packet) (Recorder.drain r) in
  Alcotest.(check (list int)) "newest 8, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    packets

let test_recorder_sampling_rate () =
  let r = Recorder.create ~capacity:64 ~sample_every:3 () in
  offer r 10;
  Alcotest.(check int) "seen all" 10 (Recorder.seen r);
  let packets = List.map (fun e -> e.Recorder.packet) (Recorder.drain r) in
  Alcotest.(check (list int)) "every 3rd candidate" [ 0; 3; 6; 9 ] packets

let test_recorder_merge_concatenates () =
  let a = Recorder.create ~capacity:16 ~sample_every:1 () in
  let b = Recorder.create ~capacity:16 ~sample_every:1 () in
  offer a 3;
  for i = 100 to 102 do
    Recorder.record b ~packet:i ~time:0.0 ~level:"sw-mf" ~latency_us:0.0
      ~count:1 Recorder.Miss
  done;
  Recorder.merge ~into:a b;
  Alcotest.(check int) "census adds" 6 (Recorder.seen a);
  let packets = List.map (fun e -> e.Recorder.packet) (Recorder.drain a) in
  Alcotest.(check (list int)) "a's stream then b's" [ 0; 1; 2; 100; 101; 102 ]
    packets

(* ------------------------------ series ------------------------------ *)

let sample_at packet =
  {
    Series.s_packet = packet;
    s_time = float_of_int packet;
    s_hw_hits = packet;
    s_sw_hits = 0;
    s_slowpaths = 0;
    s_hw_hit_rate = 1.0;
    s_mean_us = 9.0;
    s_p50_us = 9.0;
    s_p90_us = 9.0;
    s_p99_us = 9.0;
    s_p999_us = 9.0;
    s_levels = [];
  }

let test_series_cadence_and_dedup () =
  let s = Series.create ~every:100 in
  Alcotest.(check bool) "due at multiple" true (Series.due s ~packets:200);
  Alcotest.(check bool) "not due off-cadence" false (Series.due s ~packets:250);
  Series.push s (sample_at 200);
  Series.push s (sample_at 200);
  (* duplicate packet: dropped *)
  Series.push s (sample_at 300);
  Alcotest.(check int) "dedup by packet" 2 (Series.length s);
  Alcotest.(check (list int)) "oldest first" [ 200; 300 ]
    (List.map (fun x -> x.Series.s_packet) (Series.samples s))

(* ----------------------------- registry ----------------------------- *)

let test_registry_merge () =
  let a = Registry.create () and b = Registry.create () in
  let ca = Registry.counter a "pkts" and cb = Registry.counter b "pkts" in
  ca := 10;
  cb := 32;
  let gb = Registry.gauge b "occ" in
  gb := 7.5;
  let hb = Registry.histogram b ~lo:0.1 ~hi:1e5 "lat" in
  Histogram.record hb 9.0;
  Registry.merge ~into:a b;
  Alcotest.(check int) "counters add" 42 !(Registry.counter a "pkts");
  Alcotest.(check (float 1e-9)) "absent gauge copied" 7.5
    !(Registry.gauge a "occ");
  Alcotest.(check int) "absent histogram copied" 1
    (Histogram.count (Registry.histogram a ~lo:0.1 ~hi:1e5 "lat"));
  (* The copy is independent of the source. *)
  Histogram.record hb 9.0;
  Alcotest.(check int) "deep copy" 1
    (Histogram.count (Registry.histogram a ~lo:0.1 ~hi:1e5 "lat"))

(* ----------------------------- exporters ----------------------------- *)

let test_prometheus_exposition () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"packets" ~labels:[ ("level", "gf") ] "pkts_total" in
  c := 5;
  let h = Registry.histogram r ~lo:0.1 ~hi:1e5 "lat_us" in
  Histogram.record h 9.0;
  Histogram.record h 12.0;
  let text = Export.prometheus r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" needle)
        true
        (contains ~needle text))
    [
      "# TYPE pkts_total counter";
      "pkts_total{level=\"gf\"} 5";
      "# TYPE lat_us summary";
      "lat_us{quantile=\"0.5\"}";
      "lat_us_count 2";
    ]

let test_jsonl_stream_parses () =
  let tel =
    Telemetry.create
      ~config:
        {
          Telemetry.sample_every = 1;
          event_capacity = 16;
          event_sample_every = 1;
          trace_sample_every = 0;
        }
      ()
  in
  Telemetry.event tel ~packet:0 ~time:0.0 ~level:"gf" ~latency_us:9.0 ~count:1
    Recorder.Hit;
  Telemetry.push_sample tel (sample_at 1);
  let path = Filename.temp_file "gf_telemetry" ".jsonl" in
  let oc = open_out path in
  Telemetry.write_jsonl ~meta:[ ("seed", Json.Int 77) ] oc tel;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "meta + 1 sample + 1 event" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok json ->
          Alcotest.(check bool) "has type" true
            (Option.is_some (Json.member "type" json))
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e)
    lines

(* ------------------------ datapath integration ------------------------ *)

let small_profile =
  {
    Gf_workload.Classbench.acl_profile with
    Gf_workload.Classbench.endpoints = 128;
    subnets = 16;
    services = 32;
  }

let small_workload ?(seed = 77) () =
  Pipebench.make ~profile:small_profile ~combos:512 ~unique_flows:2000
    ~duration:20.0
    ~info:(Option.get (Catalog.find "PSC"))
    ~locality:Ruleset.High ~seed ()

let counters (m : Metrics.t) =
  [
    m.Metrics.packets; m.Metrics.hw_hits; m.Metrics.sw_hits; m.Metrics.slowpaths;
    m.Metrics.drops; m.Metrics.hw_installs; m.Metrics.hw_shared;
    m.Metrics.hw_rejected; m.Metrics.hw_evictions;
  ]

let telemetry_config =
  {
    Telemetry.sample_every = 1000;
    event_capacity = 512;
    event_sample_every = 7;
    trace_sample_every = 0;
  }

(* Count and sum bits of a latency histogram: equal pairs mean the same
   samples were recorded in the same order. *)
let hist_bits h = (Histogram.count h, Int64.bits_of_float (Histogram.sum h))

let test_datapath_telemetry_is_transparent () =
  let w = small_workload () in
  let cfg = Datapath.emc_gf_sw () in
  let dp_off = Datapath.create cfg (Pipebench.pipeline w) in
  let m_off = Datapath.run dp_off w.Pipebench.trace in
  let tel = Telemetry.create ~config:telemetry_config () in
  let dp_on = Datapath.create ~telemetry:tel cfg (Pipebench.pipeline w) in
  let m_on = Datapath.run dp_on w.Pipebench.trace in
  Alcotest.(check (list int)) "telemetry does not perturb the run"
    (counters m_off) (counters m_on);
  let hists (m : Metrics.t) =
    ("global", hist_bits m.Metrics.latency_hist)
    :: List.map
         (fun (l : Metrics.level) -> (l.Metrics.level_name, hist_bits l.Metrics.latency_hist))
         (Metrics.levels m)
  in
  Alcotest.(check (list (pair string (pair int int64))))
    "latency histograms bit-identical" (hists m_off) (hists m_on)

(* With every candidate recorded (sampling 1-in-1, a ring larger than the
   run), the exported [gigaflow_events_total] census must equal the
   per-(kind, level) sum of [count] over the retained events — for all
   ten kinds, [evict] (idle expiry only, derived from Metrics) included.
   The hierarchy is built to fire every kind: an EMC under heavy-hitter
   admission (promote, defer, demote), tiny NIC Megaflow and EMC
   geometries (reject, pressure eviction), a short idle budget (evict) and a rule
   update followed by a revalidation sweep (revalidate). *)
let test_event_census_matches_stream () =
  let w = small_workload () in
  let cfg =
    Datapath.emc_mf_sw ~mf_capacity:16 ()
    |> Helpers.with_emc_capacity 8 |> Datapath.with_max_idle 4.0
    |> Datapath.with_admission
         (Gf_offload.Heavy_hitter.Heavy_hitter
            { k = Gf_offload.Heavy_hitter.default_k; threshold = 4 })
  in
  let tel =
    Telemetry.create
      ~config:
        {
          Telemetry.sample_every = 0;
          event_capacity = 1 lsl 17;
          event_sample_every = 1;
          trace_sample_every = 0;
        }
      ()
  in
  let pipeline = Pipebench.pipeline w in
  let dp = Datapath.create ~telemetry:tel cfg pipeline in
  let packets = w.Pipebench.trace.Gf_workload.Trace.packets in
  let n = Array.length packets and half = Array.length packets / 2 in
  let part off len =
    { w.Pipebench.trace with Gf_workload.Trace.packets = Array.sub packets off len }
  in
  ignore (Datapath.run dp (part 0 half) : Metrics.t);
  let revalidated_at = packets.(half - 1).Gf_workload.Trace.time in
  Gf_pipeline.Pipeline.add_rule pipeline ~table:0
    (Gf_pipeline.Ofrule.v
       ~id:(Gf_pipeline.Pipeline.fresh_rule_id pipeline)
       ~priority:1_000_000 ~fmatch:Gf_flow.Fmatch.any
       ~action:(Gf_pipeline.Action.drop ()));
  ignore (Datapath.revalidate dp ~now:revalidated_at : int * int);
  ignore (Datapath.run dp (part half (n - half)) : Metrics.t);
  let r = Option.get (Telemetry.recorder tel) in
  Alcotest.(check int) "every candidate retained" (Recorder.seen r)
    (Recorder.retained r);
  let kinds =
    [
      Recorder.Hit; Miss; Install; Evict; Promote; Revalidate; Reject;
      Pressure_evict; Defer; Demote;
    ]
  in
  let reg = Telemetry.registry tel in
  let events = Telemetry.events tel in
  List.iter
    (fun (e : Recorder.event) ->
      if e.Recorder.kind = Recorder.Revalidate then
        Alcotest.(check (float 0.))
          "revalidate events carry the sweep's trace time" revalidated_at
          e.Recorder.time)
    events;
  List.iter
    (fun kind ->
      let name = Recorder.kind_name kind in
      let fired = ref 0 in
      Array.iter
        (fun level ->
          let from_stream =
            List.fold_left
              (fun acc (e : Recorder.event) ->
                if e.Recorder.kind = kind && String.equal e.Recorder.level level then
                  acc + e.Recorder.count
                else acc)
              0 events
          in
          let exported =
            !(Registry.counter reg
                ~labels:[ ("kind", name); ("level", level) ]
                "gigaflow_events_total")
          in
          Alcotest.(check int)
            (Printf.sprintf "%s at %s: census = event stream" name level)
            from_stream exported;
          fired := !fired + exported)
        (Datapath.level_names dp);
      Alcotest.(check bool) (name ^ " fired") true (!fired > 0))
    kinds

(* The check.sh telemetry-smoke run (PSC, 2000 flows, 512 combos, seed
   77, a sample every 2000 packets, every 4th event) with a 64-event
   recorder: its Prometheus snapshot and JSONL stream must match the
   pinned copies under golden/ byte for byte. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_run cfg =
  let w =
    Pipebench.make ~combos:512 ~unique_flows:2000
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.High ~seed:77 ()
  in
  let tel =
    Telemetry.create
      ~config:
        {
          Telemetry.sample_every = 2000;
          event_capacity = 64;
          event_sample_every = 4;
          trace_sample_every = 0;
        }
      ()
  in
  let dp = Datapath.create ~telemetry:tel cfg (Pipebench.pipeline w) in
  ignore (Datapath.run dp w.Pipebench.trace : Metrics.t);
  tel

let test_golden_exports () =
  let tel = golden_run (Datapath.emc_gf_sw ()) in
  let jsonl = Filename.temp_file "gf_golden" ".jsonl" in
  Out_channel.with_open_bin jsonl (fun oc -> Telemetry.write_jsonl oc tel);
  let got = read_file jsonl in
  Sys.remove jsonl;
  Alcotest.(check string) "JSONL stream" (read_file "golden/telemetry.jsonl") got;
  Alcotest.(check string) "Prometheus snapshot"
    (read_file "golden/telemetry.prom")
    (Telemetry.prometheus tel)

(* The same run on the skew-aware preset: a 2 x 64 LTM over the cuckoo
   software tail at its default 1M-entry bound.  Heavy-hitter admission
   defers every cold slowpath to the cuckoo, promotes the flows that get
   hot into the LTM, and both levels expire idle entries; the snapshot
   pins the cuckoo's hits, installs and evictions end to end. *)
let test_golden_hh_export () =
  let tel =
    golden_run
      (Datapath.gf_sw_hh ~gf:(Gf_core.Config.v ~tables:2 ~table_capacity:64 ()) ())
  in
  Alcotest.(check string) "Prometheus snapshot"
    (read_file "golden/telemetry_hh.prom")
    (Telemetry.prometheus tel)

let test_final_sample_matches_metrics () =
  let w = small_workload () in
  let tel = Telemetry.create ~config:telemetry_config () in
  let dp = Datapath.create ~telemetry:tel (Datapath.emc_gf_sw ()) (Pipebench.pipeline w) in
  let m = Datapath.run dp w.Pipebench.trace in
  match List.rev (Telemetry.samples tel) with
  | [] -> Alcotest.fail "no samples pushed"
  | last :: _ ->
      Alcotest.(check int) "packet" m.Metrics.packets last.Series.s_packet;
      Alcotest.(check int) "hw hits" m.Metrics.hw_hits last.Series.s_hw_hits;
      Alcotest.(check int) "sw hits" m.Metrics.sw_hits last.Series.s_sw_hits;
      Alcotest.(check int) "slowpaths" m.Metrics.slowpaths
        last.Series.s_slowpaths;
      Alcotest.(check (float 1e-12)) "hit rate" (Metrics.hw_hit_rate m)
        last.Series.s_hw_hit_rate;
      Alcotest.(check (float 1e-9)) "mean" (Metrics.mean_latency_us m)
        last.Series.s_mean_us;
      List.iter
        (fun (ls : Series.level_sample) ->
          match Metrics.find_level m ls.Series.ls_level with
          | None -> Alcotest.failf "sample level %S not in metrics" ls.Series.ls_level
          | Some lm ->
              Alcotest.(check int)
                (ls.Series.ls_level ^ " hits")
                lm.Metrics.hits ls.Series.ls_hits;
              Alcotest.(check int)
                (ls.Series.ls_level ^ " occupancy")
                lm.Metrics.occupancy_final ls.Series.ls_occupancy)
        last.Series.s_levels;
      (* The Prometheus snapshot agrees too. *)
      let text = Telemetry.prometheus tel in
      let expected = Printf.sprintf "gigaflow_packets_total %d" m.Metrics.packets in
      Alcotest.(check bool) "prometheus packet count" true
        (contains ~needle:expected text)

(* The engine (memoised walk, per-batch sampler) and sequential sharded
   replay (walker, per-packet sampler) merge to the same telemetry: events
   and registry agree byte for byte.  The time-series samples differ by
   design — the sampling cadence is per batch on the engine. *)
let test_parallel_telemetry_modes_agree () =
  let w = small_workload () in
  let cfg = Datapath.emc_gf_sw () in
  let pipeline = Pipebench.pipeline w in
  let tel_of (r : Parallel.result) = Option.get r.Parallel.telemetry in
  let ts =
    tel_of
      (Parallel.replay ~domains:4 ~telemetry:telemetry_config ~cfg pipeline
         w.Pipebench.trace)
  in
  let te =
    tel_of
      (Gf_engine.Engine.replay ~domains:4 ~telemetry:telemetry_config ~cfg pipeline
         (Gf_workload.Trace.stream_of_trace w.Pipebench.trace))
  in
  Alcotest.(check bool) "event streams identical" true
    (Telemetry.events ts = Telemetry.events te);
  Alcotest.(check string) "merged registries identical" (Telemetry.prometheus ts)
    (Telemetry.prometheus te)

(* ------------------------------- schema ------------------------------- *)

module Schema = Gf_telemetry.Schema

let golden_lines () =
  In_channel.with_open_bin "golden/telemetry.jsonl" In_channel.input_lines

(* The lines an emitter writes to a channel. *)
let emitted write =
  let path = Filename.temp_file "gf_schema" ".jsonl" in
  Out_channel.with_open_bin path write;
  let lines = In_channel.with_open_bin path In_channel.input_lines in
  Sys.remove path;
  lines

let accepted what lines =
  match Schema.check_jsonl lines with
  | Ok s -> s
  | Error (n, msg) -> Alcotest.failf "%s rejected at line %d: %s" what n msg

let rejected what ~line ~needle lines =
  match Schema.check_jsonl lines with
  | Ok s -> Alcotest.failf "%s accepted (%s)" what (Schema.describe s)
  | Error (n, msg) ->
      Alcotest.(check int) (what ^ ": failing line") line n;
      if not (contains ~needle msg) then
        Alcotest.failf "%s: error %S does not name %S" what msg needle

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec at i =
    if i + n > String.length s then Alcotest.failf "%S not in %S" sub s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else at (i + 1)
  in
  at 0

(* A minimal profile stream; the negative cases below edit it. *)
let p_meta =
  {|{"type":"profile_meta","schema_version":1,"sampled_packets":4,"spans":9,"levels":["gf"]}|}

let p_cause = {|{"type":"profile_cause","level":"gf","cause":"cold","count":3}|}

let p_summary =
  {|{"type":"profile_summary","census_total":3,"total_misses":3,"reconciled":true}|}

let test_schema_golden_stream () =
  let s = accepted "golden telemetry" (golden_lines ()) in
  Alcotest.(check string) "counts" "1 meta, 6 samples, 64 events" (Schema.describe s)

let test_schema_loadtest_report () =
  let w = small_workload () in
  let stream =
    Gf_workload.Trace.steady ~zipf_s:1.1 ~packets:6000 ~seed:9 ~flows:w.Pipebench.flows ()
  in
  let r =
    Gf_engine.Loadtest.run ~warmup:2000 ~window:2000 ~windows:2 ~rate:1e5
      ~slo:Gf_engine.Loadtest.default_slo (Datapath.emc_gf_sw ())
      (Pipebench.pipeline w) stream
  in
  let act window =
    {
      Gf_control.Controller.act_window = window;
      act_knob = "evict";
      act_level = "gf";
      act_from = "reject";
      act_to = "lru";
      act_reason = "p50 over budget; pressure-dominant";
    }
  in
  let lines =
    emitted (fun oc ->
        Gf_engine.Loadtest.write_jsonl
          ~meta:(Schema.params ~pipeline:"PSC" ~hierarchy:"emc_gf_sw" ~seed:77 ())
          ~extra:(List.map Gf_control.Controller.action_json [ act (-1); act 0 ])
          oc r)
  in
  let s = accepted "loadtest report" lines in
  Alcotest.(check int) "windows" 2 (Schema.count s Schema.Loadtest_window);
  Alcotest.(check int) "controller actions" 2 (Schema.count s Schema.Controller_action);
  Alcotest.(check int) "summary" 1 (Schema.count s Schema.Loadtest_summary)

let test_schema_profile_stream () =
  let w = small_workload () in
  let config = { telemetry_config with trace_sample_every = 7 } in
  let tel = Telemetry.create ~config () in
  let dp =
    Datapath.create ~telemetry:tel (Datapath.emc_gf_sw ()) (Pipebench.pipeline w)
  in
  let m = Datapath.run dp w.Pipebench.trace in
  let attr = Gf_telemetry.Tracer.attribution (Option.get (Telemetry.tracer tel)) in
  let causes = Metrics.miss_causes m in
  let total_misses =
    List.fold_left (fun a l -> a + l.Metrics.misses) 0 (Metrics.levels m)
  in
  let lines =
    emitted (fun oc -> Gf_telemetry.Attribution.write_jsonl ~causes ~total_misses oc attr)
  in
  let s = accepted "profile stream" lines in
  Alcotest.(check int) "cause lines" (List.length causes)
    (Schema.count s Schema.Profile_cause);
  match Schema.check_chrome (Gf_telemetry.Attribution.chrome_json attr) with
  | Ok n -> Alcotest.(check bool) "chrome trace has events" true (n > 0)
  | Error e -> Alcotest.failf "chrome trace rejected: %s" e

let test_schema_rejects () =
  let meta = List.hd (golden_lines ()) and sample = List.nth (golden_lines ()) 1 in
  let cause_without f = replace_first ~sub:f ~by:"" p_cause in
  ignore (accepted "minimal profile" [ p_meta; p_cause; p_summary ]);
  rejected "missing field" ~line:2 ~needle:{|missing field "cause"|}
    [ p_meta; cause_without {|"cause":"cold",|}; p_summary ];
  rejected "wrong kind" ~line:2 ~needle:{|field "level" has the wrong type|}
    [ p_meta; replace_first ~sub:{|"gf"|} ~by:"7" p_cause; p_summary ];
  rejected "sample level row" ~line:2 ~needle:{|levels[0]: missing field "tier"|}
    [ meta; replace_first ~sub:{|"tier":"hardware",|} ~by:"" sample ];
  rejected "unknown type" ~line:2 ~needle:{|unknown line type "profile_bogus"|}
    [ p_meta; {|{"type":"profile_bogus"}|}; p_summary ];
  rejected "untyped line" ~line:2 ~needle:{|missing "type" field|}
    [ p_meta; cause_without {|"type":"profile_cause",|}; p_summary ];
  rejected "not JSON" ~line:2 ~needle:"not valid JSON" [ p_meta; "{"; p_summary ];
  rejected "empty stream" ~line:0 ~needle:"no meta line found" [];
  rejected "sample before meta" ~line:1 ~needle:{|opens with "sample", not "meta"|}
    [ sample; meta ];
  rejected "no samples" ~line:1 ~needle:"no time-series samples found" [ meta ];
  rejected "missing summary" ~line:2 ~needle:"no profile_summary line found"
    [ p_meta; p_cause ];
  rejected "unversioned meta" ~line:1 ~needle:{|missing field "schema_version"|}
    [ replace_first ~sub:{|"schema_version":1,|} ~by:"" meta; sample ];
  rejected "future version" ~line:1 ~needle:"schema_version 2 is not supported"
    [ replace_first ~sub:{|"schema_version":1|} ~by:{|"schema_version":2|} p_meta ];
  rejected "unreconciled census" ~line:3 ~needle:"does not reconcile"
    [
      p_meta; p_cause;
      {|{"type":"profile_summary","census_total":3,"total_misses":4,"reconciled":false}|};
    ];
  rejected "cause rows vs census" ~line:3 ~needle:"counts sum to 2 but census_total is 3"
    [ p_meta; replace_first ~sub:{|"count":3|} ~by:{|"count":2|} p_cause; p_summary ];
  rejected "summary not last" ~line:3 ~needle:"after the summary"
    [ p_meta; p_summary; p_cause ];
  rejected "second meta" ~line:2 ~needle:{|second "profile_meta"|}
    [ p_meta; p_meta; p_cause; p_summary ]

(* Three inputs the hand-written validator this module replaced accepted. *)
let test_schema_hole_float_count () =
  rejected "float census count" ~line:2 ~needle:{|field "count" has the wrong type|}
    [
      p_meta;
      {|{"type":"profile_cause","level":"gf","cause":"cold","count":3.0}|};
      {|{"type":"profile_summary","census_total":0,"total_misses":0,"reconciled":true}|};
    ];
  rejected "float census total" ~line:3
    ~needle:{|field "census_total" has the wrong type|}
    [
      p_meta; p_cause;
      {|{"type":"profile_summary","census_total":3.0,"total_misses":3,"reconciled":true}|};
    ]

let test_schema_hole_foreign_line () =
  rejected "telemetry meta in a profile stream" ~line:2
    ~needle:{|"meta" line in a profile stream|}
    [ p_meta; List.hd (golden_lines ()); p_cause; p_summary ]

let test_schema_hole_summary_first () =
  rejected "summary before meta" ~line:1
    ~needle:{|opens with "profile_summary", not "profile_meta"|}
    [ p_summary; p_meta; p_cause ]

let test_schema_chrome_rejects () =
  let ev = {|{"name":"gf","ph":"X","ts":1,"dur":2,"pid":0,"tid":0}|} in
  let doc evs = Printf.sprintf {|{"traceEvents":[%s]}|} (String.concat "," evs) in
  Alcotest.(check (result int string))
    "valid" (Ok 2)
    (Schema.check_chrome (doc [ ev; ev ]));
  let fails what ~needle text =
    match Schema.check_chrome text with
    | Ok n -> Alcotest.failf "%s accepted (%d events)" what n
    | Error msg ->
        if not (contains ~needle msg) then
          Alcotest.failf "%s: error %S does not name %S" what msg needle
  in
  fails "no events array" ~needle:{|missing field "traceEvents"|} "{}";
  fails "not JSON" ~needle:"not valid JSON" "{";
  fails "event without ts" ~needle:{|traceEvents[1]: missing field "ts"|}
    (doc [ ev; replace_first ~sub:{|"ts":1,|} ~by:"" ev ]);
  fails "string pid" ~needle:{|traceEvents[0]: field "pid" has the wrong type|}
    (doc [ replace_first ~sub:{|"pid":0|} ~by:{|"pid":"0"|} ev ])

let suite =
  [
    ("histogram quantiles vs oracle", `Quick, test_histogram_quantiles_vs_oracle);
    ("histogram empty + clamping", `Quick, test_histogram_empty_and_edges);
    ("histogram quantile edges", `Quick, test_histogram_quantile_edges);
    ("histogram merge vs sorted oracle", `Quick,
     test_histogram_merge_quantiles_vs_sorted_oracle);
    ("histogram merge = concat", `Quick, test_histogram_merge_is_concat);
    ("histogram layout mismatch", `Quick, test_histogram_layout_mismatch);
    ("histogram record allocation-free", `Quick, test_histogram_record_allocation_free);
    ("recorder ring keeps newest", `Quick, test_recorder_ring_keeps_newest);
    ("recorder sampling rate", `Quick, test_recorder_sampling_rate);
    ("recorder merge concatenates", `Quick, test_recorder_merge_concatenates);
    ("series cadence + dedup", `Quick, test_series_cadence_and_dedup);
    ("registry merge", `Quick, test_registry_merge);
    ("prometheus exposition", `Quick, test_prometheus_exposition);
    ("jsonl stream parses", `Quick, test_jsonl_stream_parses);
    ("telemetry transparent", `Slow, test_datapath_telemetry_is_transparent);
    ("final sample = metrics", `Quick, test_final_sample_matches_metrics);
    ("event census = event stream", `Quick, test_event_census_matches_stream);
    ("golden prometheus + jsonl", `Quick, test_golden_exports);
    ("golden prometheus, gf_sw_hh", `Quick, test_golden_hh_export);
    ("parallel modes agree", `Slow, test_parallel_telemetry_modes_agree);
    ("schema: golden stream", `Quick, test_schema_golden_stream);
    ("schema: loadtest report", `Quick, test_schema_loadtest_report);
    ("schema: profile + chrome", `Quick, test_schema_profile_stream);
    ("schema: rejects", `Quick, test_schema_rejects);
    ("schema: float census count", `Quick, test_schema_hole_float_count);
    ("schema: foreign line type", `Quick, test_schema_hole_foreign_line);
    ("schema: summary before meta", `Quick, test_schema_hole_summary_first);
    ("schema: chrome rejects", `Quick, test_schema_chrome_rejects);
  ]

let props = [ prop_histogram_quantile_bounded; prop_histogram_merge_exact ]
