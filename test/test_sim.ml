(* Tests for gigaflow.sim (Datapath, Metrics) and gigaflow.nic. *)

module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Latency = Gf_nic.Latency
module Resources = Gf_nic.Resources
module Pcie = Gf_nic.Pcie
module Pipebench = Gf_workload.Pipebench
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Catalog = Gf_pipelines.Catalog
module Executor = Gf_pipeline.Executor
module Action = Gf_pipeline.Action

let small_profile =
  {
    Gf_workload.Classbench.acl_profile with
    Gf_workload.Classbench.endpoints = 128;
    subnets = 16;
    services = 32;
  }

let small_workload ?(locality = Ruleset.High) ?(seed = 77) () =
  Pipebench.make ~profile:small_profile ~combos:512 ~unique_flows:2000 ~duration:20.0
    ~info:(Option.get (Catalog.find "PSC"))
    ~locality ~seed ()

let churn_workload ?(locality = Ruleset.Low) ?(seed = 77) () =
  (* A rotating active-flow window over a rule space far larger than the
     caches: the regime where the replacement policy decides the hit rate. *)
  Pipebench.make_churn ~profile:small_profile ~combos:2048 ~unique_flows:8000
    ~active:1024 ~turnover:0.25 ~epochs:20 ~packets_per_epoch:1024
    ~info:(Option.get (Catalog.find "PSC"))
    ~locality ~seed ()

(* [emc_mf_sw] with a 0.5 s idle budget swept every 0.25 s. *)
let short_idle () =
  {
    (Datapath.with_max_idle 0.5 (Datapath.emc_mf_sw ())) with
    Datapath.expire_every = 0.25;
  }

let run cfg w =
  let dp = Datapath.create cfg (Pipebench.pipeline w) in
  let m = Datapath.run dp w.Pipebench.trace in
  (dp, m)

let test_metrics_accounting () =
  let w = small_workload () in
  let _, m = run (Datapath.emc_mf_sw ()) w in
  Alcotest.(check int) "every packet counted"
    (Trace.packet_count w.Pipebench.trace)
    m.Metrics.packets;
  Alcotest.(check int) "hits + sw + slow = packets" m.Metrics.packets
    (m.Metrics.hw_hits + m.Metrics.sw_hits + m.Metrics.slowpaths);
  Alcotest.(check int) "miss count" (Metrics.hw_miss_count m)
    (m.Metrics.sw_hits + m.Metrics.slowpaths);
  Alcotest.(check bool) "latency recorded" true
    (Gf_util.Stats.Acc.count m.Metrics.latency = m.Metrics.packets);
  Alcotest.(check bool) "hit rate sane" true
    (Metrics.hw_hit_rate m >= 0.0 && Metrics.hw_hit_rate m <= 1.0)

let test_metrics_zero_packet_guards () =
  (* Ratios on a fresh/empty run must be well-defined zeros, not NaN. *)
  let m = Metrics.create () in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 0.0)) name 0.0 v;
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    [
      ("hw_hit_rate", Metrics.hw_hit_rate m);
      ("mean_latency_us", Metrics.mean_latency_us m);
      ("overhead_ratio", Metrics.overhead_ratio m);
    ]

let test_datapath_backends_consistent_decisions () =
  (* Every packet's decision must equal the slowpath decision, whatever the
     cache backend. *)
  let w = small_workload () in
  List.iter
    (fun cfg ->
      let dp = Datapath.create cfg (Pipebench.pipeline w) in
      let pipeline = Datapath.pipeline dp in
      let checked = ref 0 in
      Helpers.iter_packets
        (fun ~now ~flow_id:_ flow ->
          let _, terminal, _ = Datapath.process dp ~now flow in
          if !checked < 3000 then begin
            incr checked;
            match (terminal, Executor.terminal_of pipeline flow) with
            | Some t, Ok (t', _) ->
                if not (Action.terminal_equal t t') then
                  Alcotest.failf "decision mismatch"
            | None, _ -> Alcotest.fail "no decision"
            | Some _, Error _ -> Alcotest.fail "slowpath error"
          end)
        w.Pipebench.trace)
    [ Datapath.emc_mf_sw (); Datapath.emc_gf_sw () ]

let test_gigaflow_beats_megaflow_under_pressure () =
  (* With caches far smaller than the flow population, Gigaflow's sharing
     must win on hit rate (the paper's headline, scaled down). *)
  let w = small_workload () in
  let mf_cfg = Datapath.emc_mf_sw ~mf_capacity:256 () in
  let gf_cfg =
    Datapath.emc_gf_sw ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:64 ()) ()
  in
  let _, mf = run mf_cfg w in
  let _, gf = run gf_cfg w in
  Alcotest.(check bool)
    (Printf.sprintf "gigaflow %.3f > megaflow %.3f" (Metrics.hw_hit_rate gf)
       (Metrics.hw_hit_rate mf))
    true
    (Metrics.hw_hit_rate gf > Metrics.hw_hit_rate mf)

(* Tentpole acceptance: on a churn trace, LRU eviction must beat the
   historical full-table-rejects behaviour for both the Megaflow and the
   Gigaflow preset.  Idle expiry is effectively disabled so the comparison
   isolates the replacement policy. *)
let test_lru_beats_reject_on_churn () =
  let w = churn_workload () in
  let compare_policies name base =
    let _, mr = run (Datapath.with_policy Gf_cache.Evict.Reject base) w in
    let _, ml = run (Datapath.with_policy Gf_cache.Evict.Lru base) w in
    Alcotest.(check bool)
      (Printf.sprintf "%s: lru %.3f > reject %.3f" name (Metrics.hw_hit_rate ml)
         (Metrics.hw_hit_rate mr))
      true
      (Metrics.hw_hit_rate ml > Metrics.hw_hit_rate mr)
  in
  compare_policies "megaflow"
    (Datapath.with_max_idle 1e6 (Datapath.mf_sw ~mf_capacity:256 ()));
  compare_policies "gigaflow"
    (Datapath.with_max_idle 1e6
       (Datapath.gf_sw ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:64 ()) ()))

(* The LTM half of the engine's per-flow memo on a small churn trace, in
   the shape of [gf_sw]: each flow holds its last
   [Ltm_cache.lookup_replay]; an LTM miss of a flow seen before is a
   software hit (that tier seldom misses a repeat flow), and any other
   miss runs the slowpath and installs its traversal under LRU pressure;
   the idle sweep runs each second.  Nearly every install changes some
   table, so nearly every replay finds the LTM changed since it last ran;
   re-checking the classifiers it visited, under 5% must re-walk — about
   as many as the slowpaths, whose next packet meets its own install. *)
let test_ltm_replays_survive_churn () =
  let w =
    Pipebench.make_churn ~profile:small_profile ~combos:2048 ~unique_flows:4000 ~active:256
      ~turnover:0.25 ~epochs:20 ~packets_per_epoch:4096
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.Low ~seed:77 ()
  in
  let pipeline = Pipebench.pipeline w in
  let gf =
    Gf_core.Gigaflow.create
      (Gf_core.Config.v ~tables:4 ~table_capacity:128 ~policy:Gf_cache.Evict.Lru ())
  in
  let cache = Gf_core.Gigaflow.cache gf and entry_tag = Gf_pipeline.Pipeline.entry pipeline in
  let memo = Hashtbl.create 1024 in
  let replays = ref 0 and rewalks = ref 0 and slowpaths = ref 0 and last_sweep = ref 0.0 in
  Helpers.iter_packets
    (fun ~now ~flow_id flow ->
      if now -. !last_sweep >= 1.0 then begin
        ignore (Gf_core.Gigaflow.expire gf ~now);
        last_sweep := now
      end;
      let walk () =
        let hit, _, replay = Gf_core.Ltm_cache.lookup_replay cache ~now ~entry_tag flow in
        Hashtbl.replace memo flow_id replay;
        hit
      in
      match Hashtbl.find_opt memo flow_id with
      | None ->
          if walk () = None then begin
            incr slowpaths;
            ignore (Gf_core.Gigaflow.handle_miss gf ~now ~pipeline flow)
          end
      | Some replay ->
          incr replays;
          if replay ~now < 0 then begin
            incr rewalks;
            ignore (walk ())
          end)
    w.Pipebench.trace;
  let share = float_of_int !rewalks /. float_of_int !replays in
  Alcotest.(check bool) (Printf.sprintf "some replays (%d)" !replays) true (!replays > 50_000);
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d replays re-walk (%.2f%%; %d slowpaths)" !rewalks !replays
       (100. *. share) !slowpaths)
    true (share < 0.05)

let test_pressure_eviction_accounting () =
  let w = churn_workload () in
  let base =
    Datapath.with_max_idle 1e6
      (Datapath.gf_sw ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:64 ()) ())
  in
  let lvl m name =
    match Metrics.find_level m name with
    | Some l -> l
    | None -> Alcotest.failf "missing level %s" name
  in
  (* Default (Reject): installs bounce off the full LTM, nothing is evicted
     under pressure — today's counters exactly. *)
  let _, mr = run base w in
  let gf_r = lvl mr "gf" in
  Alcotest.(check int) "reject: no pressure evictions" 0
    mr.Metrics.hw_pressure_evictions;
  Alcotest.(check bool) "reject: rejections counted" true (gf_r.Metrics.rejected > 0);
  (* Per-level override by metrics name: only the LTM switches to LRU. *)
  let _, ml = run (Datapath.with_level_policy ~level:"gf" Gf_cache.Evict.Lru base) w in
  let gf_l = lvl ml "gf" in
  Alcotest.(check bool) "lru: pressure evictions happen" true
    (gf_l.Metrics.pressure_evictions > 0);
  Alcotest.(check int) "hw aggregate = ltm level" ml.Metrics.hw_pressure_evictions
    gf_l.Metrics.pressure_evictions;
  Alcotest.(check int) "sw level untouched" 0
    (lvl ml "sw-mf").Metrics.pressure_evictions;
  Alcotest.(check bool) "occupancy never exceeds capacity" true
    (gf_l.Metrics.occupancy_peak <= 4 * 64)

let test_sw_cache_absorbs_misses () =
  let w = small_workload () in
  let with_sw = Datapath.emc_mf_sw ~mf_capacity:128 () in
  let no_sw = Datapath.without_software with_sw in
  let _, a = run no_sw w in
  let _, b = run with_sw w in
  Alcotest.(check int) "no sw hits when disabled" 0 a.Metrics.sw_hits;
  Alcotest.(check bool) "sw cache absorbs slowpaths" true
    (b.Metrics.slowpaths < a.Metrics.slowpaths)

let test_expiry_keeps_occupancy_bounded () =
  let w = small_workload () in
  let cfg = short_idle () in
  let dp, m = run cfg w in
  Alcotest.(check bool) "evictions happened" true (m.Metrics.hw_evictions > 0);
  Alcotest.(check bool) "final occupancy below peak" true
    (Datapath.hw_occupancy dp <= m.Metrics.hw_entries_peak)

let test_miss_sink_and_on_packet () =
  let w = small_workload () in
  let dp = Datapath.create (Datapath.emc_gf_sw ()) (Pipebench.pipeline w) in
  let events = ref 0 and miss_cycles = ref 0 in
  let m =
    Datapath.run
      ~on_packet:(fun _ _ _ -> incr events)
      ~miss_sink:(fun ~flow_id:_ ~cycles -> miss_cycles := !miss_cycles + cycles)
      dp w.Pipebench.trace
  in
  Alcotest.(check int) "callback per packet" m.Metrics.packets !events;
  (* Slowpath packets account for all userspace/partition/rulegen cycles
     plus their own software-cache searches; software hits burn search
     cycles outside the sink. *)
  let floor_cycles =
    m.Metrics.cycles_userspace + m.Metrics.cycles_partition + m.Metrics.cycles_rulegen
  in
  Alcotest.(check bool) "miss cycles bounded" true
    (!miss_cycles >= floor_cycles && !miss_cycles <= Metrics.total_cycles m)

let test_latency_model () =
  Alcotest.(check bool) "deployment ordering" true
    (Latency.cache_hit_us Latency.Offload_fpga < Latency.cache_hit_us Latency.Dpdk_host
    && Latency.cache_hit_us Latency.Dpdk_host < Latency.cache_hit_us Latency.Dpdk_arm
    && Latency.cache_hit_us Latency.Dpdk_arm < Latency.cache_hit_us Latency.Kernel_host
    && Latency.cache_hit_us Latency.Kernel_host < Latency.cache_hit_us Latency.Kernel_arm);
  Alcotest.(check (float 1e-9)) "paper's fpga hit" 8.62
    (Latency.cache_hit_us Latency.Offload_fpga);
  let slow1 =
    Latency.slowpath_us ~pipeline_lookups:5 ~tuple_probes:20 ~partition_work:100
      ~rulegen_work:4 ~installs:4
  in
  let slow2 =
    Latency.slowpath_us ~pipeline_lookups:10 ~tuple_probes:40 ~partition_work:400
      ~rulegen_work:4 ~installs:4
  in
  Alcotest.(check bool) "monotone in work" true (slow2 > slow1);
  Alcotest.(check bool) "sw search scales" true
    (Latency.sw_search_us ~work:100 () > Latency.sw_search_us ~work:10 ());
  Alcotest.(check bool) "nm units cheaper" true
    (Latency.sw_search_us ~algo:`Nuevomatch ~work:100 ()
    < Latency.sw_search_us ~algo:`Tss ~work:100 ())

let test_resources_model () =
  let e = Resources.estimate ~tables:4 ~table_capacity:8192 in
  (* Calibrated to the paper's prototype: 47% LUT, 33% FF, 49% BRAM, 38 W. *)
  Alcotest.(check (float 0.5)) "luts" 47.0 e.Resources.luts_pct;
  Alcotest.(check (float 0.5)) "ffs" 33.0 e.Resources.ffs_pct;
  Alcotest.(check (float 0.5)) "bram" 49.0 e.Resources.bram_pct;
  Alcotest.(check (float 0.5)) "power" 38.0 e.Resources.power_w;
  Alcotest.(check bool) "fits budget" true (Resources.fits e);
  let big = Resources.estimate ~tables:8 ~table_capacity:200_000 in
  Alcotest.(check bool) "oversized rejected" false (Resources.fits big)

let test_multicore_distribution () =
  let census = Hashtbl.create 16 in
  for flow = 0 to 999 do
    Hashtbl.replace census flow (100 + (flow mod 7))
  done;
  let one = Gf_sim.Multicore.distribute ~cores:1 census in
  let four = Gf_sim.Multicore.distribute ~cores:4 census in
  Alcotest.(check int) "total conserved" (Gf_sim.Multicore.total_load one)
    (Gf_sim.Multicore.total_load four);
  Alcotest.(check int) "1-core max = total" (Gf_sim.Multicore.total_load one)
    (Gf_sim.Multicore.max_load one);
  (* Bottleneck-load ratio against one core, and max over mean load. *)
  let max4 = Gf_sim.Multicore.max_load four in
  let s = float_of_int (Gf_sim.Multicore.max_load one) /. float_of_int max4 in
  Alcotest.(check bool) (Printf.sprintf "near-linear speedup (%.2f)" s) true
    (s > 3.0 && s <= 4.2);
  Alcotest.(check bool) "balanced" true
    (float_of_int (4 * max4) < 1.2 *. float_of_int (Gf_sim.Multicore.total_load four))

(* Flow ids that share their low bits must still spread: a hash whose low
   bits are the id's own would put every multiple of 4 on core 0. *)
let test_rss_hash_spreads_strided_ids () =
  let cores = Array.make 4 0 in
  for i = 0 to 255 do
    let core = Gf_sim.Multicore.rss_hash (4 * i) mod 4 in
    cores.(core) <- cores.(core) + 1
  done;
  Alcotest.(check bool)
    (Printf.sprintf "multiples of 4 on more than one of 4 cores (%d %d %d %d)" cores.(0)
       cores.(1) cores.(2) cores.(3))
    true
    (Array.fold_left (fun used n -> if n > 0 then used + 1 else used) 0 cores > 1)

let test_multicore_distribute_rejects_no_cores () =
  let census = Hashtbl.create 1 in
  Hashtbl.replace census 0 100;
  Helpers.raises_invalid "0 cores" (fun () -> Gf_sim.Multicore.distribute ~cores:0 census);
  Helpers.raises_invalid "-1 cores" (fun () -> Gf_sim.Multicore.distribute ~cores:(-1) census)

(* ------------------------- parallel replay ------------------------- *)

module Parallel = Gf_sim.Parallel
module Multicore = Gf_sim.Multicore
module Engine = Gf_engine.Engine

(* The merged counters that must be identical between replay modes.  Wall
   times and latency means differ (timing), but sample counts must not.
   Includes the per-level breakdown so a mismatch hiding inside one level
   (while aggregates coincide) still fails. *)
let fingerprint (m : Metrics.t) =
  [
    m.Metrics.packets; m.Metrics.hw_hits; m.Metrics.sw_hits; m.Metrics.slowpaths;
    m.Metrics.drops; m.Metrics.hw_installs; m.Metrics.hw_shared;
    m.Metrics.hw_rejected; m.Metrics.hw_evictions; m.Metrics.cycles_userspace;
    m.Metrics.cycles_partition; m.Metrics.cycles_rulegen;
    m.Metrics.cycles_sw_search; m.Metrics.hw_entries_final;
    Gf_util.Stats.Acc.count m.Metrics.latency;
  ]
  @ List.concat_map
      (fun (l : Metrics.level) ->
        [
          l.Metrics.hits; l.Metrics.misses; l.Metrics.installs; l.Metrics.shared;
          l.Metrics.rejected; l.Metrics.evictions; l.Metrics.work;
          l.Metrics.occupancy_final;
        ])
      (Metrics.levels m)

let test_metrics_merge () =
  let mk hits sw lat =
    let m = Metrics.create () in
    m.Metrics.packets <- hits + sw;
    m.Metrics.hw_hits <- hits;
    m.Metrics.sw_hits <- sw;
    m.Metrics.hw_entries_peak <- hits;
    List.iter (Gf_util.Stats.Acc.add m.Metrics.latency) lat;
    m
  in
  let a = mk 3 1 [ 1.0; 2.0; 3.0; 4.0 ] in
  let b = mk 5 2 [ 10.0; 20.0; 30.0; 40.0; 50.0; 60.0; 70.0 ] in
  Metrics.merge ~into:a b;
  Alcotest.(check int) "packets add" 11 a.Metrics.packets;
  Alcotest.(check int) "hw_hits add" 8 a.Metrics.hw_hits;
  Alcotest.(check int) "sw_hits add" 3 a.Metrics.sw_hits;
  Alcotest.(check int) "peaks sum (disjoint caches)" 8 a.Metrics.hw_entries_peak;
  Alcotest.(check int) "src unchanged" 5 b.Metrics.hw_hits;
  let acc = a.Metrics.latency in
  Alcotest.(check int) "latency count" 11 (Gf_util.Stats.Acc.count acc);
  Alcotest.(check (float 1e-9)) "latency total" 290.0 (Gf_util.Stats.Acc.total acc);
  (* Chan's merge must agree exactly with feeding one accumulator. *)
  let flat = Gf_util.Stats.Acc.create () in
  List.iter (Gf_util.Stats.Acc.add flat)
    [ 1.0; 2.0; 3.0; 4.0; 10.0; 20.0; 30.0; 40.0; 50.0; 60.0; 70.0 ];
  Alcotest.(check (float 1e-6)) "merged mean" (Gf_util.Stats.Acc.mean flat)
    (Gf_util.Stats.Acc.mean acc);
  Alcotest.(check (float 1e-6)) "merged variance" (Gf_util.Stats.Acc.variance flat)
    (Gf_util.Stats.Acc.variance acc);
  Alcotest.(check (float 1e-9)) "merged min" 1.0 (Gf_util.Stats.Acc.min acc);
  Alcotest.(check (float 1e-9)) "merged max" 70.0 (Gf_util.Stats.Acc.max acc);
  (* aggregate = left fold of merge into a fresh record *)
  let c = mk 2 0 [ 5.0 ] in
  let agg = Metrics.aggregate [ b; c ] in
  Alcotest.(check int) "aggregate packets" 9 agg.Metrics.packets;
  Alcotest.(check int) "aggregate latency count" 8
    (Gf_util.Stats.Acc.count agg.Metrics.latency)

let test_parallel_shard_partition () =
  let w = small_workload () in
  let trace = w.Pipebench.trace in
  let shards = Parallel.shard ~domains:4 trace in
  Alcotest.(check int) "four shards" 4 (Array.length shards);
  let total =
    Array.fold_left (fun acc s -> acc + Trace.packet_count s) 0 shards
  in
  Alcotest.(check int) "packets conserved" (Trace.packet_count trace) total;
  let owner = Hashtbl.create 256 in
  Array.iteri
    (fun d s ->
      let last_time = ref neg_infinity in
      Helpers.iter_packets
        (fun ~now ~flow_id _ ->
          (match Hashtbl.find_opt owner flow_id with
          | Some d' when d' <> d -> Alcotest.failf "flow %d on shards %d and %d" flow_id d' d
          | _ -> Hashtbl.replace owner flow_id d);
          if now < !last_time then Alcotest.fail "shard not time-ordered";
          if Multicore.rss_hash flow_id mod 4 <> d then
            Alcotest.failf "flow %d on shard %d, not at its RSS hash" flow_id d;
          last_time := now)
        s;
      Alcotest.(check bool) "flow table shared" true (s.Trace.flows == trace.Trace.flows))
    shards;
  Alcotest.(check int) "flows conserved" (Array.length trace.Trace.flows) (Hashtbl.length owner)

(* A shard keeps the parent's flow ids, so its flow-id bound is the
   parent's flow table, not the number of flows it happens to carry.  A
   shard that counted its distinct ids (62 here, with ids up to 99) broke
   both consumers below. *)
let shard_of_generated () =
  let flows = Array.init 100 (fun i -> Gf_flow.Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  (Parallel.shard ~domains:2 (Trace.generate ~duration:5.0 ~seed:3 ~flows ())).(0)

let test_shard_serialises () =
  let s = shard_of_generated () in
  let back =
    match Gf_workload.Serial.trace_of_string (Gf_workload.Serial.trace_to_string s) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (array int)) "flow ids round-trip" s.Trace.flow_ids back.Trace.flow_ids

(* [fill]'s contract: one flow id always pairs with one flow, here across
   a shard concatenated with itself. *)
let test_shard_concat_pairs_ids_with_flows () =
  let s = shard_of_generated () in
  let c = Trace.concat s s ~offset:0.0 in
  let n = Trace.packet_count c in
  let times = Array.make n 0.0 and flow_ids = Array.make n 0 in
  let flows = Array.make n Gf_flow.Flow.zero in
  let k = Trace.fill (Trace.stream_of_trace c) ~times ~flow_ids ~flows ~max:n in
  Alcotest.(check int) "packets" (2 * Trace.packet_count s) k;
  let owner = Hashtbl.create 256 in
  let clashes = ref 0 in
  for i = 0 to k - 1 do
    match Hashtbl.find_opt owner flow_ids.(i) with
    | Some f -> if not (Gf_flow.Flow.equal f flows.(i)) then incr clashes
    | None -> Hashtbl.replace owner flow_ids.(i) flows.(i)
  done;
  Alcotest.(check int) "packets whose id another packet pairs with another flow" 0 !clashes

let test_parallel_single_domain_matches_datapath () =
  let w = small_workload () in
  let pipeline = Pipebench.pipeline w in
  let trace = w.Pipebench.trace in
  List.iter
    (fun cfg ->
      let plain =
        Datapath.run (Datapath.create cfg (Gf_pipeline.Pipeline.copy pipeline)) trace
      in
      List.iter
        (fun (r : Parallel.result) ->
          Alcotest.(check (list int)) "1-domain replay = plain run"
            (fingerprint plain)
            (fingerprint r.Parallel.merged))
        [
          Parallel.replay ~domains:1 ~cfg pipeline trace;
          Engine.replay ~domains:1 ~cfg pipeline (Trace.stream_of_trace trace);
        ])
    [ Datapath.emc_mf_sw (); Datapath.emc_gf_sw () ]

(* The shard skeleton's contract, with a fake runner standing in for a
   driver: it gets one datapath per shard over a private pipeline replica,
   its wall times become the critical path, and the shards' metrics merge. *)
let test_parallel_run_shards_contract () =
  let w = small_workload () in
  let pipeline = Pipebench.pipeline w in
  let shards = Parallel.shard ~domains:3 w.Pipebench.trace in
  let packets = ref [] in
  let run (dps : Datapath.t array) =
    Alcotest.(check int) "three datapaths" 3 (Array.length dps);
    Array.iteri
      (fun i dp ->
        let p = Datapath.pipeline dp in
        Alcotest.(check bool) "replica, not the input" true (p != pipeline);
        Array.iteri
          (fun j dp' ->
            if j <> i then
              Alcotest.(check bool) "private replica" true (p != Datapath.pipeline dp'))
          dps;
        packets := (Datapath.run dp shards.(i)).Metrics.packets :: !packets)
      dps;
    [| 0.5; 2.0; 1.0 |]
  in
  let r =
    Parallel.run_shards ~domains:3 ~cfg:(Datapath.emc_gf_sw ()) pipeline run
  in
  Alcotest.(check int) "domains" 3 r.Parallel.domains;
  Alcotest.(check (float 0.0)) "critical path = slowest shard" 2.0
    r.Parallel.critical_path_seconds;
  Alcotest.(check int) "merged packets = sum over shards"
    (List.fold_left ( + ) 0 !packets)
    r.Parallel.merged.Metrics.packets;
  Alcotest.(check int) "every packet replayed"
    (Trace.packet_count w.Pipebench.trace)
    r.Parallel.merged.Metrics.packets

(* ---------------------- cache-hierarchy walker ---------------------- *)

module Cache_level = Gf_sim.Cache_level

(* The generic walker must reproduce the hard-coded datapath EXACTLY.
   These fingerprints are captured on the fixed-seed small workload; any
   drift in hit/miss/install/eviction counts, cycle accounting or total
   latency is a behaviour change, not a refactor.  (Recaptured once when
   [Rng.int] switched from modulo to exactly-uniform rejection sampling,
   and again when [Zipf.sample] switched from CDF binary search to
   Walker's alias method — sanctioned stream changes: same distribution,
   different fixed-seed sequence.  The default [Reject]/[Lru] replacement
   policies reproduce these numbers bit-identically.) *)
let test_hierarchy_regression () =
  let check_cfg name cfg expected expected_lat =
    let w = small_workload () in
    let _, m = run cfg w in
    Alcotest.(check (list int)) (name ^ " counters")
      expected
      [
        m.Metrics.packets; m.Metrics.hw_hits; m.Metrics.sw_hits;
        m.Metrics.slowpaths; m.Metrics.drops; m.Metrics.hw_installs;
        m.Metrics.hw_shared; m.Metrics.hw_rejected; m.Metrics.hw_evictions;
        m.Metrics.cycles_userspace; m.Metrics.cycles_partition;
        m.Metrics.cycles_rulegen; m.Metrics.cycles_sw_search;
        m.Metrics.hw_entries_peak; m.Metrics.hw_entries_final;
      ];
    Alcotest.(check (float 1e-6)) (name ^ " total latency") expected_lat
      (Gf_util.Stats.Acc.total m.Metrics.latency)
  in
  check_cfg "emc_mf_sw" (Datapath.emc_mf_sw ())
    [ 10615; 9725; 65; 825; 0; 825; 0; 0; 825; 9469350; 0; 0; 35466750; 825; 0 ]
    102509.357692308;
  check_cfg "emc_gf_sw" (Datapath.emc_gf_sw ())
    [
      10615; 10193; 27; 395; 0; 591; 785; 0; 587; 4305450; 2872440; 1100800;
      13129200; 582; 4;
    ]
    100581.611538461;
  check_cfg "emc_mf_sw short idle"
    (short_idle ())
    [
      10615; 3864; 5047; 1704; 0; 1704; 0; 0; 1703; 19336650; 0; 0; 74490750;
      139; 1;
    ]
    125345.673076914

(* Satellite: per-level eviction accounting.  The seed dropped EMC and
   software-cache eviction counts on the floor ([ignore]d); now every
   level's sweep is recorded, and the hardware aggregate equals the sum of
   hardware-tier levels. *)
let test_per_level_eviction_accounting () =
  let w = small_workload () in
  let cfg = short_idle () in
  let _, m = run cfg w in
  let lvl name =
    match Metrics.find_level m name with
    | Some l -> l
    | None -> Alcotest.failf "missing level %s" name
  in
  let nic = lvl "nic-mf" and emc = lvl "emc" and sw = lvl "sw-mf" in
  Alcotest.(check int) "hw aggregate = nic level" m.Metrics.hw_evictions
    nic.Metrics.evictions;
  Alcotest.(check bool) "EMC evictions counted, not ignored" true
    (emc.Metrics.evictions > 0);
  Alcotest.(check bool) "software-cache evictions counted" true
    (sw.Metrics.evictions > 0);
  (* Consultation counts telescope down the hierarchy: every packet hits
     the first level; each deeper level sees exactly the misses above. *)
  Alcotest.(check int) "first level sees all packets" m.Metrics.packets
    (nic.Metrics.hits + nic.Metrics.misses);
  Alcotest.(check int) "emc sees nic misses" nic.Metrics.misses
    (emc.Metrics.hits + emc.Metrics.misses);
  Alcotest.(check int) "sw sees emc misses" emc.Metrics.misses
    (sw.Metrics.hits + sw.Metrics.misses);
  Alcotest.(check int) "sw misses = slowpaths" sw.Metrics.misses
    m.Metrics.slowpaths

(* Satellite: the software cache's longer idle budget is a per-level
   descriptor field (default 4x the hierarchy's), not a magic constant in
   the walker — and a spec-level override wins. *)
let test_per_level_max_idle () =
  let w = small_workload () in
  let budget cfg name =
    let dp = Datapath.create cfg (Pipebench.pipeline w) in
    match
      List.find_opt (fun l -> Cache_level.name l = name) (Datapath.levels dp)
    with
    | Some l -> (Cache_level.descriptor l).Cache_level.max_idle
    | None -> Alcotest.failf "missing level %s" name
  in
  let cfg = Datapath.with_max_idle 2.0 (Datapath.emc_gf_sw ()) in
  Alcotest.(check (float 1e-9)) "gf takes the hierarchy default" 2.0
    (budget cfg "gf");
  Alcotest.(check (float 1e-9)) "emc takes the hierarchy default" 2.0
    (budget cfg "emc");
  Alcotest.(check (float 1e-9)) "sw wildcard cache defaults to 4x" 8.0
    (budget cfg "sw-mf");
  let overridden =
    {
      cfg with
      Datapath.levels =
        List.map
          (function
            | Cache_level.Sw_megaflow s ->
                Cache_level.Sw_megaflow { s with max_idle = Some 1.5 }
            | s -> s)
          cfg.Datapath.levels;
    }
  in
  Alcotest.(check (float 1e-9)) "spec override wins" 1.5
    (budget overridden "sw-mf")

(* [Cache_level.build] derives each level's whole descriptor from its
   spec kind: name, tier, install policy, default idle budget (4x the
   hierarchy's on the host-DRAM levels), host cycles per work unit and the
   hit-latency model, checked at two work values so a constant and a
   work-proportional cost cannot pass for each other. *)
let test_level_descriptors () =
  let pipeline = Pipebench.pipeline (small_workload ()) in
  let fixed us ~work:_ = us in
  let rows =
    [
      ( Cache_level.Emc { capacity = 64; max_idle = None; evict = None },
        "emc",
        Cache_level.Software,
        Cache_level.Promote_on_hit,
        2.0,
        0,
        fixed Latency.emc_hit_us );
      ( Cache_level.Nic_megaflow { capacity = 64; max_idle = None; evict = None },
        "nic-mf",
        Cache_level.Hardware,
        Cache_level.Install_on_miss,
        2.0,
        0,
        fixed Latency.hw_hit_us );
      ( Cache_level.Sw_megaflow
          { search = `Nuevomatch; capacity = 64; max_idle = None; evict = None },
        "sw-mf",
        Cache_level.Software,
        Cache_level.Install_on_miss,
        8.0,
        Latency.probe_cycles,
        fun ~work -> Latency.sw_search_us ~algo:`Nuevomatch ~work () );
      ( Cache_level.Sw_cuckoo { capacity = 64; max_idle = None; evict = None },
        "sw-ck",
        Cache_level.Software,
        Cache_level.Install_on_miss,
        8.0,
        0,
        fixed Latency.cuckoo_hit_us );
      ( Cache_level.Gf_ltm { gf = Gf_core.Config.default; max_idle = None },
        "gf",
        Cache_level.Hardware,
        Cache_level.Install_on_miss,
        2.0,
        0,
        fixed Latency.hw_hit_us );
    ]
  in
  List.iter
    (fun (spec, name, tier, policy, max_idle, cpw, hit_us) ->
      let d =
        Cache_level.descriptor
          (Cache_level.build ~default_max_idle:2.0 ~pipeline spec)
      in
      Alcotest.(check string) "name" name d.Cache_level.name;
      Alcotest.(check bool) (name ^ " tier") true (d.Cache_level.tier = tier);
      Alcotest.(check bool) (name ^ " policy") true (d.Cache_level.policy = policy);
      Alcotest.(check (float 1e-9)) (name ^ " max_idle") max_idle d.Cache_level.max_idle;
      Alcotest.(check int) (name ^ " cycles_per_work") cpw d.Cache_level.cycles_per_work;
      List.iter
        (fun work ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s hit_us at work %d" name work)
            (hit_us ~work) (d.Cache_level.hit_us ~work))
        [ 1; 40 ])
    rows;
  Alcotest.(check bool) "the sw-mf row tells NuevoMatch from TSS" true
    (Latency.sw_search_us ~algo:`Tss ~work:40 ()
    <> Latency.sw_search_us ~algo:`Nuevomatch ~work:40 ())

(* A full level's answer to one more distinct traversal, through
   [Cache_level.build] for every spec kind at capacity 2: [Reject] refuses
   it and leaves occupancy alone, [Lru] writes it over at least one
   victim.  The EMC learns through [promote], the rest through
   [install_from_traversal].  (A 2-entry cuckoo has two buckets, so every
   key's bucket pair holds a victim.) *)
let test_full_level_install_outcome () =
  let w = small_workload () in
  let pipeline = Pipebench.pipeline w in
  let specs policy =
    let evict = Some policy in
    [
      Cache_level.Emc { capacity = 2; max_idle = None; evict };
      Cache_level.Nic_megaflow { capacity = 2; max_idle = None; evict };
      Cache_level.Sw_megaflow { search = `Tss; capacity = 2; max_idle = None; evict };
      Cache_level.Sw_cuckoo { capacity = 2; max_idle = None; evict };
      Cache_level.Gf_ltm
        { gf = Gf_core.Config.v ~tables:1 ~table_capacity:2 ~policy (); max_idle = None };
    ]
  in
  List.iter
    (fun policy ->
      List.iter
        (fun spec ->
          let level = Cache_level.build ~default_max_idle:10.0 ~pipeline spec in
          let name =
            Cache_level.name level ^ "/" ^ Gf_cache.Evict.to_string policy
          in
          (* Offer a traversal the level does not hold yet. *)
          let offer flow tr =
            match Cache_level.backend level with
            | Cache_level.Emc _ -> (
                let hit =
                  {
                    Gf_cache.Hit.terminal = tr.Gf_pipeline.Traversal.terminal;
                    out_flow = flow;
                  }
                in
                match Cache_level.promote level ~now:1.0 flow hit with
                | Gf_cache.Install.Installed { fresh; pressure_evicted; _ } ->
                    (fresh, 0, pressure_evicted)
                | Gf_cache.Install.Rejected _ -> (0, 1, 0))
            | Cache_level.Megaflow _ | Cache_level.Cuckoo _ | Cache_level.Ltm _ ->
                let r = Cache_level.install_from_traversal level ~now:1.0 ~version:0 tr in
                ( r.Cache_level.fresh,
                  r.Cache_level.rejected,
                  r.Cache_level.pressure_evicted )
          in
          let unseen =
            Array.to_seq w.Pipebench.flows
            |> Seq.filter_map (fun flow ->
                   match Executor.execute pipeline flow with
                   | Ok tr -> Some (flow, tr)
                   | Error _ -> None)
            |> Seq.filter (fun (flow, _) ->
                   fst (Cache_level.lookup level ~now:1.0 flow) = None)
          in
          let rec fill seq =
            if Cache_level.occupancy level < 2 then
              match seq () with
              | Seq.Cons ((flow, tr), rest) ->
                  ignore (offer flow tr);
                  fill rest
              | Seq.Nil -> Alcotest.failf "%s: ran out of flows filling" name
          in
          fill unseen;
          let flow, tr =
            match unseen () with
            | Seq.Cons (next, _) -> next
            | Seq.Nil -> Alcotest.failf "%s: no flow left to offer" name
          in
          let fresh, rejected, pressure_evicted = offer flow tr in
          match policy with
          | Gf_cache.Evict.Reject ->
              Alcotest.(check (list int)) (name ^ " rejected, nothing written")
                [ 0; 1; 0 ] [ fresh; rejected; pressure_evicted ];
              Alcotest.(check int) (name ^ " occupancy unchanged") 2
                (Cache_level.occupancy level)
          | _ ->
              Alcotest.(check (pair int int)) (name ^ " written, not rejected") (1, 0)
                (fresh, rejected);
              Alcotest.(check bool) (name ^ " evicted to make room") true
                (pressure_evicted >= 1))
        (specs policy))
    [ Gf_cache.Evict.Reject; Gf_cache.Evict.Lru ]

(* A 4-entry EMC under [Reject] refuses most promotions.  Each refusal is
   a rejected install, not a promotion: the EMC's promotions are exactly
   the entries it took (still resident, or gone by idle expiry — a
   [Reject] EMC evicts nothing else), and with the EMC between the NIC
   Megaflow and the software Megaflow, every software hit offers one
   promotion. *)
let test_refused_emc_promotion () =
  let w =
    Pipebench.make ~combos:256 ~unique_flows:500
      ~info:(Option.get (Catalog.find "PSC"))
      ~locality:Ruleset.High ~seed:7 ()
  in
  let cfg =
    Datapath.with_policy Gf_cache.Evict.Reject
      (Helpers.with_emc_capacity 4 (Datapath.emc_mf_sw ()))
  in
  let _, m = run cfg w in
  let lvl name = Option.get (Metrics.find_level m name) in
  let emc = lvl "emc" and sw = lvl "sw-mf" in
  Alcotest.(check int) "promotions = entries the EMC took"
    (emc.Metrics.occupancy_final + emc.Metrics.evictions)
    emc.Metrics.promotions;
  Alcotest.(check int) "promotions + rejected = promotion offers" sw.Metrics.hits
    (emc.Metrics.promotions + emc.Metrics.rejected);
  Alcotest.(check bool) "the EMC refused some" true (emc.Metrics.rejected > 0)

(* Satellite: cache transparency.  Whatever the hierarchy — including none
   at all on the hardware side — the terminal decision for every packet
   equals the bare slowpath's, through the walker and through the memoised
   walk alike.  The memoised walk is driven with an unknown flow id (-1):
   every per-flow memo is keyed by the id, so unknown flows must bypass
   them rather than share one slot. *)
let prop_hierarchy_transparent =
  QCheck2.Test.make ~name:"cache hierarchy is decision-transparent" ~count:2
    QCheck2.Gen.(0 -- 1000)
    (fun seed ->
      let w = small_workload ~seed () in
      let reference = Pipebench.pipeline w in
      List.for_all
        (fun name ->
          let cfg = Option.get (Datapath.preset name) in
          List.for_all
            (fun process ->
              let dp = Datapath.create cfg (Gf_pipeline.Pipeline.copy reference) in
              let transparent = ref true in
              Helpers.iter_packets
                (fun ~now ~flow_id:_ flow ->
                  let _, terminal, _ = process dp ~now flow in
                  match (terminal, Executor.terminal_of reference flow) with
                  | Some t, Ok (t', _) -> if not (Action.terminal_equal t t') then transparent := false
                  | _, _ -> transparent := false)
                w.Pipebench.trace;
              !transparent)
            [
              (fun dp ~now flow -> Datapath.process dp ~now flow);
              (fun dp ~now flow -> Datapath.process_memo dp ~now ~flow_id:(-1) flow);
            ])
        Datapath.preset_names)

(* Hierarchies stacking one level kind twice name the copies "sw-mf",
   "sw-mf#2"; the per-level knobs address exactly those names, and the
   online knob leaves [config] equal to the offline combinator's result. *)
let test_duplicate_level_names () =
  let w = small_workload () in
  let sw =
    Cache_level.Sw_megaflow
      { search = `Tss; capacity = 1000; max_idle = None; evict = None }
  in
  let base = Datapath.mf_sw () in
  let cfg = { base with Datapath.levels = base.Datapath.levels @ [ sw ] } in
  let dp = Datapath.create cfg (Pipebench.pipeline w) in
  Alcotest.(check (array string)) "level names"
    [| "nic-mf"; "sw-mf"; "sw-mf#2" |]
    (Datapath.level_names dp);
  let offline = Datapath.with_level_policy ~level:"sw-mf#2" Gf_cache.Evict.Lru cfg in
  Alcotest.(check bool) "with_level_policy touches only the second sw-mf" true
    (offline.Datapath.levels
    = [
        List.nth cfg.Datapath.levels 0;
        List.nth cfg.Datapath.levels 1;
        Cache_level.spec_with_evict sw Gf_cache.Evict.Lru;
      ]);
  Datapath.set_evict_policy dp ~level:"sw-mf#2" Gf_cache.Evict.Lru;
  Alcotest.(check bool) "set_evict_policy config = with_level_policy" true
    (Datapath.config dp = offline);
  Alcotest.(check bool) "live policies" true
    (Datapath.evict_policy dp ~level:"sw-mf#2" = Gf_cache.Evict.Lru
    && Datapath.evict_policy dp ~level:"sw-mf" = Gf_cache.Evict.Reject)

(* The engine's per-domain replicas of a custom (non-preset) hierarchy
   must merge to sequential-identical metrics, per-level counters included
   (they are part of [fingerprint]). *)
let test_parallel_custom_hierarchy () =
  let w = small_workload () in
  let cfg =
    {
      Datapath.name = "custom_gf_sw";
      levels =
        [
          Cache_level.Gf_ltm
            {
              gf = Gf_core.Config.v ~tables:4 ~table_capacity:512 ();
              max_idle = None;
            };
          Cache_level.Sw_megaflow
            { search = `Tss; capacity = 100_000; max_idle = Some 5.0; evict = None };
        ];
      max_idle = 2.0;
      expire_every = 0.5;
      admission = Gf_offload.Heavy_hitter.Admit_all;
    }
  in
  let pipeline = Pipebench.pipeline w in
  let par =
    Engine.replay ~domains:4 ~cfg pipeline (Trace.stream_of_trace w.Pipebench.trace)
  in
  let seq = Parallel.replay ~domains:4 ~cfg pipeline w.Pipebench.trace in
  Alcotest.(check (list int)) "engine = sequential, per level"
    (fingerprint seq.Parallel.merged)
    (fingerprint par.Parallel.merged);
  Alcotest.(check (list string)) "replicas preserve level names"
    [ "gf"; "sw-mf" ]
    (List.map
       (fun (l : Metrics.level) -> l.Metrics.level_name)
       (Metrics.levels par.Parallel.merged))

let test_pcie_model () =
  Alcotest.(check (float 1e-9)) "empty batch" 0.0 (Pcie.batch_us ~ops:0);
  Alcotest.(check bool) "batch amortises" true
    (Pcie.batch_us ~ops:10 < 10.0 *. (Pcie.write_entry_us +. 0.6) +. 1e-9)

(* Minor words allocated and words promoted by [f ()], with a minor
   collection on either side: a promoted word is a young block that [f]
   left reachable from the major heap, which is what storing a fresh
   float box into a long-lived mixed record (through the write barrier)
   does. *)
let gc_cost f =
  Gc.minor ();
  let m0, p0, _ = Gc.counters () in
  f ();
  Gc.minor ();
  let m1, p1, _ = Gc.counters () in
  (m1 -. m0, p1 -. p0)

(* A compiled-replay hit writes every float it touches into an all-float
   record (latency accumulator and histogram moments, entry clocks), so
   10,000 of them allocate nothing and keep no float box alive.  Each
   packet's time is computed by the caller and boxed as the argument; a
   loop that boxes the same times and calls nothing gives the harness and
   argument cost, which is subtracted. *)
let replay_gc_cost cfg =
  let w = small_workload () in
  let dp = Datapath.create cfg (Pipebench.pipeline w) in
  let flows = Array.sub w.Pipebench.flows 0 64 in
  let pass now =
    Array.mapi (fun flow_id flow -> Datapath.process_memo dp ~now ~flow_id flow) flows
  in
  (* Install, then a memoised hit that compiles each flow's replay; the
     flows the third pass serves from the NIC replay it from then on. *)
  ignore (pass 0.1 : _ array);
  ignore (pass 0.2 : _ array);
  let hw =
    List.filter
      (fun i -> match (pass 0.3).(i) with Datapath.Hw_hit, _, _ -> true | _ -> false)
      (List.init (Array.length flows) Fun.id)
    |> Array.of_list
  in
  let time i = 0.4 +. (float_of_int i *. 1e-5) in
  let baseline () =
    for i = 0 to 9_999 do
      ignore (Sys.opaque_identity (time i))
    done
  in
  let replay () =
    for i = 0 to 9_999 do
      let flow_id = hw.(i mod Array.length hw) in
      ignore (Sys.opaque_identity (Datapath.process_memo dp ~now:(time i) ~flow_id flows.(flow_id)))
    done
  in
  let m = Datapath.metrics dp in
  let hits0 = m.Metrics.hw_hits in
  let base_minor, base_promoted = gc_cost baseline in
  let minor, promoted = gc_cost replay in
  Alcotest.(check bool) "some flows hit the NIC" true (Array.length hw > 0);
  Alcotest.(check int) "every replayed packet a NIC hit" 10_000 (m.Metrics.hw_hits - hits0);
  (minor -. base_minor, promoted -. base_promoted)

let test_replay_allocation_free () =
  List.iter
    (fun (name, cfg) ->
      let minor, promoted = replay_gc_cost cfg in
      Alcotest.(check (float 0.)) (name ^ ": minor words") 0. minor;
      Alcotest.(check (float 0.)) (name ^ ": promoted words") 0. promoted)
    [ ("emc_gf_sw", Datapath.emc_gf_sw ()); ("mf_sw", Datapath.mf_sw ()) ]

(* A rule update mid-stream, through both walks, for every preset: the
   first half of the small workload runs through [process ~flow_id] on
   one datapath and through [process_memo] on another; then a
   top-priority drop for the flows with an even source address (half the
   flow space: a catch-all drop would collapse every later flow onto one
   entry) goes into table 0, both datapaths revalidate, and the rest
   runs.  The strong fingerprints, miss causes included, must agree, and
   on [gf_sw] and [mf_sw] the flows whose entries the sweep took must
   miss with cause [Revalidation]. *)
let test_memo_across_rule_update () =
  List.iter
    (fun name ->
      let w = small_workload () in
      let pipeline = Pipebench.pipeline w in
      let cfg = Option.get (Datapath.preset name) in
      let walker = Datapath.create cfg pipeline in
      let memo = Datapath.create cfg pipeline in
      let { Trace.times; flow_ids; flows; _ } = w.Pipebench.trace in
      let half = Array.length times / 2 in
      let replay lo hi =
        for i = lo to hi - 1 do
          let now = times.(i) and flow_id = flow_ids.(i) in
          let flow = flows.(flow_id) in
          ignore (Datapath.process walker ~flow_id ~now flow);
          ignore (Datapath.process_memo memo ~now ~flow_id flow)
        done
      in
      replay 0 half;
      Gf_pipeline.Pipeline.add_rule pipeline ~table:0
        (Gf_pipeline.Ofrule.v
           ~id:(Gf_pipeline.Pipeline.fresh_rule_id pipeline)
           ~priority:1_000_000
           ~fmatch:
             (Gf_flow.Fmatch.v
                ~pattern:(Gf_flow.Flow.make [ (Gf_flow.Field.Ip_src, 0) ])
                ~mask:(Gf_flow.Mask.make [ (Gf_flow.Field.Ip_src, 1) ]))
           ~action:(Action.drop ()));
      let now = times.(half - 1) in
      Alcotest.(check (pair int int))
        (name ^ ": same sweep")
        (Datapath.revalidate walker ~now)
        (Datapath.revalidate memo ~now);
      replay half (Array.length times);
      let time = times.(Array.length times - 1) in
      let mw = Datapath.finalize walker ~time and mm = Datapath.finalize memo ~time in
      Alcotest.(check string)
        (name ^ ": walker = memo")
        (Helpers.strong_fingerprint mw) (Helpers.strong_fingerprint mm);
      let revalidation_misses =
        List.fold_left
          (fun acc l -> acc + Metrics.cause_misses l Metrics.Revalidation)
          0 (Metrics.levels mm)
      in
      if name = "gf_sw" || name = "mf_sw" then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d revalidation misses" name revalidation_misses)
          true (revalidation_misses > 0))
    Datapath.preset_names

(* Pin: the heap [process_memo] keeps per slowpath beyond what [process]
   keeps.  [gf_sw] under LRU replays the churn workload (8,000 flows,
   2,155 slowpaths) once through each, on a fresh workload each time
   (with one pipeline shared by both runs, the second run read about 96k
   words fewer live after than before); live words are read after
   [Gc.compact] before and after each run, with the datapath still
   reachable.  The difference, per slowpath, is the per-flow state only
   the memoised walk holds: the per-level lookup memos and the compiled
   top-level replays.  It measured 406 words per slowpath while the walk
   also kept each flow's pipeline traversal, and 300 without it; the
   bound sits between, so per-flow slowpath state that comes back fails
   here (the soak test's 1,000 flows are too few to see it). *)
let test_memo_retained_heap () =
  let retained process =
    let w = churn_workload () in
    let dp =
      Datapath.create
        (Datapath.with_policy Gf_cache.Evict.Lru (Datapath.gf_sw ()))
        (Pipebench.pipeline w)
    in
    Gc.compact ();
    let before = (Gc.stat ()).Gc.live_words in
    Helpers.iter_packets
      (fun ~now ~flow_id flow -> ignore (process dp ~now ~flow_id flow))
      w.Pipebench.trace;
    Gc.compact ();
    let after = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity w);
    ((Sys.opaque_identity dp |> Datapath.metrics).Metrics.slowpaths, after - before)
  in
  let slowpaths, memo_words = retained Datapath.process_memo in
  let walk_slowpaths, walk_words =
    retained (fun dp ~now ~flow_id flow -> Datapath.process dp ~flow_id ~now flow)
  in
  Alcotest.(check int) "same slowpaths" walk_slowpaths slowpaths;
  let per_slowpath = float_of_int (memo_words - walk_words) /. float_of_int slowpaths in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f extra words per slowpath (bound 350)" per_slowpath)
    true (per_slowpath < 350.)

let suite =
  [
    ("metrics accounting", `Quick, test_metrics_accounting);
    ("metrics zero-packet guards", `Quick, test_metrics_zero_packet_guards);
    ("datapath decisions = slowpath", `Slow, test_datapath_backends_consistent_decisions);
    ("gigaflow beats megaflow under pressure", `Slow, test_gigaflow_beats_megaflow_under_pressure);
    ("lru beats reject on churn", `Quick, test_lru_beats_reject_on_churn);
    ("pressure eviction accounting", `Quick, test_pressure_eviction_accounting);
    ("ltm replays survive churn", `Quick, test_ltm_replays_survive_churn);
    ("software cache absorbs misses", `Quick, test_sw_cache_absorbs_misses);
    ("expiry bounds occupancy", `Quick, test_expiry_keeps_occupancy_bounded);
    ("run callbacks", `Quick, test_miss_sink_and_on_packet);
    ("latency model", `Quick, test_latency_model);
    ("resources model", `Quick, test_resources_model);
    ("multicore distribution", `Quick, test_multicore_distribution);
    ("multicore distribute rejects 0 cores", `Quick, test_multicore_distribute_rejects_no_cores);
    ("rss hash spreads strided flow ids", `Quick, test_rss_hash_spreads_strided_ids);
    ("metrics merge", `Quick, test_metrics_merge);
    ("parallel shard partition", `Quick, test_parallel_shard_partition);
    ("shard serialises", `Quick, test_shard_serialises);
    ("shard concat pairs ids with flows", `Quick, test_shard_concat_pairs_ids_with_flows);
    ("parallel 1-domain = plain datapath", `Slow, test_parallel_single_domain_matches_datapath);
    ("parallel run_shards contract", `Quick, test_parallel_run_shards_contract);
    ("hierarchy walker = pre-refactor datapath", `Quick, test_hierarchy_regression);
    ("per-level eviction accounting", `Quick, test_per_level_eviction_accounting);
    ("per-level idle budgets", `Quick, test_per_level_max_idle);
    ("level descriptors per spec kind", `Quick, test_level_descriptors);
    ("full level install outcome per spec kind", `Quick, test_full_level_install_outcome);
    ("refused emc promotion is a rejection", `Quick, test_refused_emc_promotion);
    ("duplicate level names", `Quick, test_duplicate_level_names);
    ("parallel custom hierarchy", `Slow, test_parallel_custom_hierarchy);
    ("pcie model", `Quick, test_pcie_model);
    ("compiled replay allocation-free", `Quick, test_replay_allocation_free);
    ("memo path across a rule update", `Quick, test_memo_across_rule_update);
    ("memo retained heap per slowpath", `Quick, test_memo_retained_heap);
  ]

let props = [ prop_hierarchy_transparent ]
