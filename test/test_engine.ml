(* Tests for gigaflow.engine: SPSC ring, batches, and the streaming
   engine's determinism against sequential sharded replay. *)

module Ring = Gf_engine.Ring
module Batch = Gf_engine.Batch
module Engine = Gf_engine.Engine
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Parallel = Gf_sim.Parallel
module Pipebench = Gf_workload.Pipebench
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Catalog = Gf_pipelines.Catalog
module Histogram = Gf_telemetry.Histogram
module Telemetry = Gf_telemetry.Telemetry

(* ------------------------------- ring -------------------------------- *)

let test_ring_capacity_blocking () =
  let r = Ring.create ~capacity:5 in
  let cap = Ring.capacity r in
  Alcotest.(check int) "rounds up to a power of two" 8 cap;
  for i = 0 to cap - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "push %d accepted" i)
      true (Ring.try_push r i)
  done;
  Alcotest.(check bool) "push refused at capacity" false (Ring.try_push r 99);
  Alcotest.(check (option int)) "fifo head" (Some 0) (Ring.try_pop r);
  Alcotest.(check bool) "space after pop" true (Ring.try_push r cap);
  for i = 1 to cap do
    Alcotest.(check (option int))
      (Printf.sprintf "fifo %d" i)
      (Some i) (Ring.try_pop r)
  done;
  Alcotest.(check (option int)) "empty pops None" None (Ring.try_pop r)

let prop_ring_spsc =
  QCheck2.Test.make
    ~name:"spsc ring: fifo, no loss, no dup across a domain pair" ~count:15
    QCheck2.Gen.(pair (1 -- 32) (list_size (0 -- 400) small_int))
    (fun (capacity, xs) ->
      let r = Ring.create ~capacity in
      let n = List.length xs in
      (* Consumer domain blocks on [pop]; the producer blocks on [push]
         when the ring fills — any loss, duplication or reorder shows up
         as a mismatched list (a lost item deadlocks into the test
         timeout instead of passing). *)
      let consumer =
        Domain.spawn (fun () -> List.init n (fun _ -> Ring.pop r))
      in
      List.iter (fun x -> Ring.push r x) xs;
      let got = Domain.join consumer in
      got = xs)

(* ------------------------------- batch ------------------------------- *)

let test_batch_pool_roundtrip () =
  let b = Batch.create ~size:64 in
  Alcotest.(check int) "size" 64 (Batch.size b);
  Alcotest.(check int) "created empty" 0 b.Batch.len;
  Alcotest.(check bool) "not poison" false (Batch.is_poison b);
  Alcotest.(check bool) "poison is poison" true (Batch.is_poison Batch.poison)

(* ------------------------- engine determinism ------------------------- *)

let small_profile =
  {
    Gf_workload.Classbench.acl_profile with
    Gf_workload.Classbench.endpoints = 128;
    subnets = 16;
    services = 32;
  }

let steady_trace () =
  let w =
    Pipebench.make ~profile:small_profile ~combos:512 ~unique_flows:1000
      ~duration:20.0
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.High ~seed:77 ()
  in
  let stream =
    Trace.steady ~duration:5.0 ~zipf_s:1.1 ~packets:20_000 ~seed:11
      ~flows:w.Pipebench.flows ()
  in
  (Pipebench.pipeline w, Trace.trace_of_stream stream)

(* A rotating active-flow window against a small LTM under LRU: the
   write-heavy shape, where installs, pressure evictions and memo
   invalidation dominate. *)
let churn_trace () =
  let w =
    Pipebench.make_churn ~profile:small_profile ~combos:512 ~unique_flows:1000
      ~duration:20.0 ~epochs:10 ~active:256 ~turnover:0.25
      ~packets_per_epoch:1024
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.High ~seed:77 ()
  in
  (Pipebench.pipeline w, w.Pipebench.trace)

(* The engine runs the memoised walk, the sequential oracle the plain
   walker: equal strong fingerprints pin both memo settings against each
   other, on the read-mostly steady trace and the write-heavy churn trace. *)
let test_engine_matches_sequential () =
  let check trace_name (pipeline, strace) presets =
    List.iter
      (fun (name, cfg) ->
        List.iter
          (fun domains ->
            let seq = Parallel.replay ~domains ~cfg pipeline strace in
            let eng =
              Engine.replay ~batch_size:256 ~domains ~cfg pipeline
                (Trace.stream_of_trace strace)
            in
            Alcotest.(check string)
              (Printf.sprintf "%s %s d=%d merged metrics" trace_name name domains)
              (Helpers.strong_fingerprint seq.Parallel.merged)
              (Helpers.strong_fingerprint eng.Parallel.merged))
          [ 1; 2; 4 ])
      presets
  in
  check "steady" (steady_trace ())
    [
      ("emc_mf_sw", Datapath.emc_mf_sw ());
      ("emc_gf_sw", Datapath.emc_gf_sw ());
      ("gf_sw", Datapath.gf_sw ());
      ("mf_sw", Datapath.mf_sw ());
      ("gf_only", Datapath.gf_only ());
      ("mf_only", Datapath.mf_only ());
      (* Capacity small enough that heavy-hitter admission actually defers,
         promotes and demotes during the run. *)
      ("mf_sw_hh", Datapath.mf_sw_hh ~mf_capacity:32 ());
      ( "gf_sw_hh",
        Datapath.gf_sw_hh ~gf:(Gf_core.Config.v ~tables:2 ~table_capacity:16 ()) () );
    ];
  check "churn" (churn_trace ())
    [
      ( "gf_sw lru",
        Datapath.with_policy Gf_cache.Evict.Lru
          (Datapath.gf_sw ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:32 ()) ()) );
      (* Stateless software search: its hit replay also needs the entry
         set unchanged, which only churn exercises. *)
      ( "gf_sw lru nuevomatch",
        Datapath.with_sw_search `Nuevomatch
          (Datapath.with_policy Gf_cache.Evict.Lru
             (Datapath.gf_sw ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:32 ()) ())) );
      ( "mf_sw lru linear",
        Datapath.with_sw_search `Linear
          (Datapath.with_policy Gf_cache.Evict.Lru (Datapath.mf_sw ~mf_capacity:64 ())) );
    ]

let test_engine_batch_size_invariant () =
  let pipeline, strace = steady_trace () in
  let cfg = Datapath.emc_mf_sw () in
  let run bs =
    Helpers.strong_fingerprint
      (Engine.replay ~batch_size:bs ~domains:2 ~cfg pipeline
         (Trace.stream_of_trace strace))
        .Parallel.merged
  in
  let ref_fp = run 256 in
  List.iter
    (fun bs ->
      Alcotest.(check string)
        (Printf.sprintf "batch=%d = batch=256" bs)
        ref_fp (run bs))
    [ 1; 17; 1024 ]

(* --------------------- sampler cadence transparency --------------------- *)

let cadence_presets () =
  [|
    ("mf_sw_hh", Datapath.mf_sw_hh ~mf_capacity:32 ());
    ( "gf_sw_hh",
      Datapath.gf_sw_hh ~gf:(Gf_core.Config.v ~tables:2 ~table_capacity:16 ()) ()
    );
  |]

(* The pull-model sampler's cadence is an observation schedule, not a
   semantic knob: whatever [sample_every] (including 0 = series off), the
   merged metrics must be bit-identical to the uninstrumented run.  Runs
   on the admission presets, whose defer/promote/demote paths exercise
   every emission site.  Plain fingerprints are memoised per
   (preset, domains) — the property draws only the cadence fresh. *)
let prop_engine_sampler_cadence_transparent =
  let setup =
    lazy
      (let pipeline, strace = steady_trace () in
       (pipeline, strace, cadence_presets (), Hashtbl.create 8))
  in
  QCheck2.Test.make
    ~name:"engine telemetry: sampler cadence leaves merged metrics bit-identical"
    ~count:12
    QCheck2.Gen.(triple (0 -- 1) (1 -- 2) (oneofl [ 0; 1; 17; 700; 5000 ]))
    (fun (pi, domains, sample_every) ->
      let pipeline, strace, presets, plain = Lazy.force setup in
      let name, cfg = presets.(pi) in
      let fp_plain =
        match Hashtbl.find_opt plain (name, domains) with
        | Some fp -> fp
        | None ->
            let r =
              Engine.replay ~batch_size:256 ~domains ~cfg pipeline
                (Trace.stream_of_trace strace)
            in
            let fp = Helpers.strong_fingerprint r.Parallel.merged in
            Hashtbl.add plain (name, domains) fp;
            fp
      in
      let telemetry =
        {
          Telemetry.sample_every;
          event_capacity = 256;
          event_sample_every = 5;
          trace_sample_every = 0;
        }
      in
      let r =
        Engine.replay ~telemetry ~batch_size:256 ~domains ~cfg pipeline
          (Trace.stream_of_trace strace)
      in
      Helpers.strong_fingerprint r.Parallel.merged = fp_plain)

(* Beyond the metrics: the retained flight-recorder events and the final
   registry export are cadence-invariant too (the time-series length is
   not — that is the knob's whole job). *)
let test_engine_cadence_invariant_exports () =
  let pipeline, strace = steady_trace () in
  Array.iter
    (fun (name, cfg) ->
      List.iter
        (fun domains ->
          let run sample_every =
            let telemetry =
              {
                Telemetry.sample_every;
                event_capacity = 256;
                event_sample_every = 5;
                trace_sample_every = 0;
              }
            in
            Option.get
              (Engine.replay ~telemetry ~batch_size:256 ~domains ~cfg pipeline
                 (Trace.stream_of_trace strace))
                .Parallel.telemetry
          in
          let tel0 = run 1 in
          List.iter
            (fun every ->
              let tel = run every in
              Alcotest.(check bool)
                (Printf.sprintf "%s d=%d every=%d events" name domains every)
                true
                (Telemetry.events tel0 = Telemetry.events tel);
              Alcotest.(check string)
                (Printf.sprintf "%s d=%d every=%d registry" name domains every)
                (Telemetry.prometheus tel0) (Telemetry.prometheus tel))
            [ 700; 0 ])
        [ 1; 2 ])
    (cadence_presets ())

(* --------------------- tracer transparency + census --------------------- *)

(* The traversal tracer is observation-only: whatever the 1-in-N span
   cadence, both the walker's and the engine's strong fingerprints must
   be bit-identical to the trace-off run at every domain count.  Plain
   fingerprints are memoised; each draw re-runs only the traced side. *)
let prop_tracer_cadence_transparent =
  let setup =
    lazy
      (let pipeline, strace = steady_trace () in
       (pipeline, strace, cadence_presets (), Hashtbl.create 8, Hashtbl.create 4))
  in
  QCheck2.Test.make
    ~name:"tracer: cadences {1,17,701} leave walker/engine bit-identical"
    ~count:10
    QCheck2.Gen.(triple (0 -- 1) (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 17; 701 ]))
    (fun (pi, domains, cadence) ->
      let pipeline, strace, presets, eng_plain, walk_plain =
        Lazy.force setup
      in
      let name, cfg = presets.(pi) in
      let telemetry trace_sample_every =
        {
          Telemetry.sample_every = 5_000;
          event_capacity = 256;
          event_sample_every = 0;
          trace_sample_every;
        }
      in
      let eng_fp trace_every =
        let r =
          Engine.replay
            ~telemetry:(telemetry trace_every)
            ~batch_size:256 ~domains ~cfg pipeline
            (Trace.stream_of_trace strace)
        in
        Helpers.strong_fingerprint r.Parallel.merged
      in
      let walk_fp trace_every =
        let tel = Telemetry.create ~config:(telemetry trace_every) () in
        let dp = Datapath.create ~telemetry:tel cfg pipeline in
        Helpers.strong_fingerprint (Datapath.run dp strace)
      in
      let memo tbl key f =
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            let v = f () in
            Hashtbl.add tbl key v;
            v
      in
      let eng_ref = memo eng_plain (name, domains) (fun () -> eng_fp 0) in
      let walk_ref = memo walk_plain name (fun () -> walk_fp 0) in
      eng_fp cadence = eng_ref && walk_fp cadence = walk_ref)

(* Every miss is charged to exactly one cause where [Metrics] counts it,
   so each level's cause counts sum to its misses with telemetry off, and
   the counts do not move when the tracer is on (cadences 1 and 701) —
   for the walker and for the engine at every domain count, on a churn
   trace against the small heavy-hitter presets (defer, pressure
   eviction, idle expiry and revalidation all fire). *)
let test_miss_cause_census_reconciles () =
  let w =
    Pipebench.make ~profile:small_profile ~combos:512 ~unique_flows:1000
      ~duration:20.0
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.High ~seed:77 ()
  in
  let strace =
    Trace.churn ~duration:20.0 ~epochs:12 ~active:256 ~turnover:0.4
      ~packets_per_epoch:2048 ~seed:23 ~flows:w.Pipebench.flows ()
  in
  let pipeline = Pipebench.pipeline w in
  let runs cfg telemetry =
    let walker =
      let telemetry = Option.map (fun config -> Telemetry.create ~config ()) telemetry in
      Datapath.run
        (Datapath.create ?telemetry cfg (Gf_pipeline.Pipeline.copy pipeline))
        strace
    in
    ("walker", walker)
    :: List.map
         (fun domains ->
           let r =
             Engine.replay ?telemetry ~batch_size:256 ~domains ~cfg pipeline
               (Trace.stream_of_trace strace)
           in
           (Printf.sprintf "engine d=%d" domains, r.Parallel.merged))
         [ 1; 2; 4 ]
  in
  let traced trace_sample_every =
    {
      Telemetry.sample_every = 5_000;
      event_capacity = 256;
      event_sample_every = 0;
      trace_sample_every;
    }
  in
  Array.iter
    (fun (name, cfg) ->
      let untraced = runs cfg None in
      List.iter
        (fun (run, m) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: misses observed" name run)
            true
            (List.exists (fun (l : Metrics.level) -> l.Metrics.misses > 0) (Metrics.levels m));
          List.iter
            (fun (l : Metrics.level) ->
              Alcotest.(check int)
                (Printf.sprintf "%s %s %s: causes sum to misses" name run
                   l.Metrics.level_name)
                l.Metrics.misses
                (Array.fold_left ( + ) 0 l.Metrics.miss_causes))
            (Metrics.levels m))
        untraced;
      List.iter
        (fun every ->
          List.iter2
            (fun (run, m0) (_, m) ->
              Alcotest.(check (list (triple string string int)))
                (Printf.sprintf "%s %s: causes with tracer 1/%d" name run every)
                (Metrics.miss_causes m0) (Metrics.miss_causes m))
            untraced
            (runs cfg (Some (traced every))))
        [ 1; 701 ])
    (cadence_presets ())

(* ------------------------------- soak -------------------------------- *)

(* A million-packet steady-state run with the full telemetry stack on:
   after the first measurement window (memo tables, ring and recorder
   warm-up), the live heap must stay flat — the flight recorder is a
   fixed ring and every counter and histogram is preallocated, so any
   growth is a leak. *)
let test_soak_live_heap_flat () =
  let w =
    Pipebench.make ~profile:small_profile ~combos:512 ~unique_flows:1000
      ~duration:20.0
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.High ~seed:77 ()
  in
  let total = 1_200_000 and window = 200_000 in
  let stream =
    Trace.steady ~duration:60.0 ~zipf_s:1.1 ~packets:total ~seed:11
      ~flows:w.Pipebench.flows ()
  in
  let telemetry =
    Telemetry.create
      ~config:
        {
          Telemetry.sample_every = 10_000;
          event_capacity = 512;
          event_sample_every = 7;
          trace_sample_every = 0;
        }
      ()
  in
  let dp =
    Datapath.create ~telemetry (Datapath.emc_gf_sw ()) (Pipebench.pipeline w)
  in
  let batch = 1024 in
  let times = Array.make batch 0.0 in
  let flow_ids = Array.make batch 0 in
  let flows = Array.make batch Gf_flow.Flow.zero in
  let processed = ref 0 in
  let live = ref [] in
  let continue = ref true in
  while !continue do
    let k = Trace.fill stream ~times ~flow_ids ~flows ~max:batch in
    if k = 0 then continue := false
    else begin
      for i = 0 to k - 1 do
        ignore
          (Datapath.process_memo dp ~now:times.(i) ~flow_id:flow_ids.(i)
             flows.(i))
      done;
      Datapath.maybe_sample dp ~time:times.(k - 1);
      let before = !processed in
      processed := !processed + k;
      if !processed / window > before / window then begin
        Gc.full_major ();
        live := float_of_int (Gc.stat ()).Gc.live_words :: !live
      end
    end
  done;
  ignore (Datapath.finalize dp ~time:60.0);
  Alcotest.(check int) "soaked the full stream" total !processed;
  match List.rev !live with
  | _warmup :: (ref0 :: _ as steady) when List.length steady >= 3 ->
      List.iteri
        (fun i lw ->
          let drift = Float.abs (lw -. ref0) /. ref0 in
          Alcotest.(check bool)
            (Printf.sprintf "window %d live-word drift %.4f <= 5%%" (i + 2)
               drift)
            true (drift <= 0.05))
        steady
  | ws -> Alcotest.failf "soak produced only %d windows" (List.length ws)

let suite =
  [
    Alcotest.test_case "ring capacity + blocking" `Quick
      test_ring_capacity_blocking;
    Alcotest.test_case "batch pool roundtrip" `Quick test_batch_pool_roundtrip;
    Alcotest.test_case "engine = sequential (presets x domains)" `Slow
      test_engine_matches_sequential;
    Alcotest.test_case "engine invariant to batch size" `Slow
      test_engine_batch_size_invariant;
    Alcotest.test_case "cadence-invariant events + registry" `Slow
      test_engine_cadence_invariant_exports;
    Alcotest.test_case "miss-cause census reconciles with metrics" `Slow
      test_miss_cause_census_reconciles;
    Alcotest.test_case "soak: live heap flat over 1.2M packets" `Slow
      test_soak_live_heap_flat;
  ]

let props =
  [
    prop_ring_spsc; prop_engine_sampler_cadence_transparent;
    prop_tracer_cadence_transparent;
  ]
