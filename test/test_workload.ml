(* Tests for gigaflow.workload: Classbench, Ruleset, Trace, Pipebench. *)

module Classbench = Gf_workload.Classbench
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Pipebench = Gf_workload.Pipebench
module Catalog = Gf_pipelines.Catalog
module Executor = Gf_pipeline.Executor
module Flow = Gf_flow.Flow

let small_profile =
  {
    Classbench.acl_profile with
    Classbench.endpoints = 128;
    subnets = 16;
    services = 32;
  }

let test_classbench_deterministic () =
  let a = Classbench.generate (Classbench.create ~seed:5 ()) 100 in
  let b = Classbench.generate (Classbench.create ~seed:5 ()) 100 in
  Alcotest.(check bool) "same rules" true (a = b);
  let c = Classbench.generate (Classbench.create ~seed:6 ()) 100 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_classbench_well_formed () =
  let rules = Classbench.generate (Classbench.create ~seed:7 ()) 2000 in
  Array.iter
    (fun (r : Classbench.rule) ->
      let _, src_len = r.Classbench.ip_src and _, dst_len = r.Classbench.ip_dst in
      Alcotest.(check bool) "src len" true (List.mem src_len [ 16; 24; 32 ]);
      Alcotest.(check bool) "dst len" true (List.mem dst_len [ 16; 24; 32 ]);
      (match r.Classbench.proto with
      | Some p -> Alcotest.(check bool) "proto sane" true (List.mem p [ 1; 6; 17 ])
      | None -> ());
      (match (r.Classbench.proto, r.Classbench.tp_dst) with
      | (Some 1 | None), Some _ -> Alcotest.fail "ports without L4 proto"
      | _ -> ());
      Alcotest.(check bool) "vlan in range" true (r.Classbench.vlan >= 10))
    rules

(* Fig. 4's shape: sharing increases monotonically as fields decrease. *)
let test_classbench_sharing_monotone () =
  let rules = Classbench.generate (Classbench.create ~seed:8 ()) 20_000 in
  let sharing = List.map (fun k -> Classbench.five_tuple_sharing rules ~k) [ 1; 2; 3; 4; 5 ] in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if a < b then Alcotest.failf "sharing not monotone: %f < %f" a b else check rest
    | _ -> ()
  in
  check sharing;
  (* The full 5-tuple is nearly unique (paper: ~1.03). *)
  let k5 = List.nth sharing 4 in
  Alcotest.(check bool) (Printf.sprintf "5-tuple nearly unique (%.2f)" k5) true (k5 < 3.0);
  let k1 = List.hd sharing in
  Alcotest.(check bool) (Printf.sprintf "single fields highly shared (%.0f)" k1) true
    (k1 > 50.0)

let test_classbench_sharing_rejects_bad_k () =
  let rules = Classbench.generate (Classbench.create ~seed:8 ()) 10 in
  Helpers.raises_invalid "k = 0" (fun () -> Classbench.five_tuple_sharing rules ~k:0);
  Helpers.raises_invalid "k = 6" (fun () -> Classbench.five_tuple_sharing rules ~k:6)

let test_gateway_macs_distinct_oui () =
  let gen = Classbench.create ~seed:9 () in
  let rules = Classbench.generate gen 100 in
  Array.iter
    (fun r ->
      let gw = Classbench.gateway_mac gen r in
      Alcotest.(check bool) "distinct OUI" true (gw lsr 40 <> r.Classbench.eth_src lsr 40))
    rules

let test_ruleset_builds_all_pipelines () =
  List.iter
    (fun info ->
      let rs = Ruleset.build ~profile:small_profile ~combos:256 ~info ~seed:3 () in
      Alcotest.(check bool)
        (info.Catalog.code ^ " installs rules")
        true
        (Ruleset.rule_count rs > 0);
      Alcotest.(check int) "combos" 256 (Ruleset.combo_count rs))
    Catalog.all

let test_ruleset_deterministic () =
  let info = Option.get (Catalog.find "PSC") in
  let a = Ruleset.build ~profile:small_profile ~combos:128 ~info ~seed:11 () in
  let b = Ruleset.build ~profile:small_profile ~combos:128 ~info ~seed:11 () in
  Alcotest.(check int) "same rule count" (Ruleset.rule_count a) (Ruleset.rule_count b);
  let fa = Ruleset.sample_flows a ~seed:1 ~locality:Ruleset.High ~n:100 in
  let fb = Ruleset.sample_flows b ~seed:1 ~locality:Ruleset.High ~n:100 in
  Alcotest.(check bool) "same flows" true (fa = fb)

let test_sampled_flows_unique_and_executable () =
  let info = Option.get (Catalog.find "OFD") in
  let rs = Ruleset.build ~profile:small_profile ~combos:256 ~info ~seed:12 () in
  let p = Ruleset.pipeline rs in
  List.iter
    (fun locality ->
      let flows = Ruleset.sample_flows rs ~seed:2 ~locality ~n:500 in
      let seen = Hashtbl.create 500 in
      Array.iter
        (fun flow ->
          Alcotest.(check bool) "unique" false (Hashtbl.mem seen flow);
          Hashtbl.replace seen flow ();
          match Executor.execute p flow with
          | Ok tr ->
              Alcotest.(check bool) "has steps" true (Gf_pipeline.Traversal.length tr > 0)
          | Error e -> Alcotest.failf "flow fails: %a" Executor.pp_error e)
        flows)
    [ Ruleset.High; Ruleset.Low ]

(* Flows should mostly exercise installed rules, not fall through empty
   miss chains. *)
let test_flows_hit_rules () =
  let info = Option.get (Catalog.find "PSC") in
  let rs = Ruleset.build ~profile:small_profile ~combos:512 ~info ~seed:13 () in
  let p = Ruleset.pipeline rs in
  let flows = Ruleset.sample_flows rs ~seed:3 ~locality:Ruleset.High ~n:300 in
  let rule_hits = ref 0 and total_steps = ref 0 in
  Array.iter
    (fun flow ->
      match Executor.execute p flow with
      | Ok tr ->
          Array.iter
            (fun (s : Gf_pipeline.Traversal.step) ->
              incr total_steps;
              match s.Gf_pipeline.Traversal.outcome with
              | `Rule _ -> incr rule_hits
              | `Table_miss -> ())
            tr.Gf_pipeline.Traversal.steps
      | Error _ -> ())
    flows;
  let frac = float_of_int !rule_hits /. float_of_int !total_steps in
  Alcotest.(check bool) (Printf.sprintf "mostly rule hits (%.2f)" frac) true (frac > 0.5)

let test_high_locality_concentrates () =
  let info = Option.get (Catalog.find "PSC") in
  let rs = Ruleset.build ~combos:4096 ~info ~seed:14 () in
  let p = Ruleset.pipeline rs in
  let distinct_megaflows locality =
    let flows = Ruleset.sample_flows rs ~seed:4 ~locality ~n:2000 in
    let seen = Hashtbl.create 100 in
    Array.iter
      (fun flow ->
        match Executor.execute p flow with
        | Ok tr ->
            let w = Gf_pipeline.Traversal.megaflow_wildcard tr in
            Hashtbl.replace seen (Gf_flow.Fmatch.v ~pattern:flow ~mask:w) ()
        | Error _ -> ())
      flows;
    Hashtbl.length seen
  in
  let high = distinct_megaflows Ruleset.High in
  let low = distinct_megaflows Ruleset.Low in
  Alcotest.(check bool)
    (Printf.sprintf "high (%d) concentrates vs low (%d)" high low)
    true
    (float_of_int high < 0.8 *. float_of_int low)

let test_trace_sorted_and_counts () =
  let flows = Array.init 50 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let t = Trace.generate ~duration:10.0 ~mean_flow_size:4.0 ~seed:15 ~flows () in
  Alcotest.(check int) "unique flows" 50 t.Trace.unique_flows;
  Alcotest.(check bool) "at least one packet per flow" true
    (Trace.packet_count t >= 50);
  let sorted = ref true in
  for i = 0 to Array.length t.Trace.packets - 2 do
    if t.Trace.packets.(i).Trace.time > t.Trace.packets.(i + 1).Trace.time then
      sorted := false
  done;
  Alcotest.(check bool) "sorted by time" true !sorted

let test_trace_deterministic () =
  let flows = Array.init 20 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let a = Trace.generate ~seed:16 ~flows () in
  let b = Trace.generate ~seed:16 ~flows () in
  Alcotest.(check int) "same size" (Trace.packet_count a) (Trace.packet_count b)

let test_trace_concat () =
  let flows = Array.init 10 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let a = Trace.generate ~duration:5.0 ~seed:17 ~flows () in
  let b = Trace.generate ~duration:5.0 ~seed:18 ~flows () in
  let c = Trace.concat a b ~offset:300.0 in
  Alcotest.(check int) "flow ids renumbered" 20 c.Trace.unique_flows;
  Alcotest.(check int) "packets merged" (Trace.packet_count a + Trace.packet_count b)
    (Trace.packet_count c);
  (* Packets from b all carry ids >= 10 and times >= 300. *)
  Array.iter
    (fun pkt ->
      if pkt.Trace.flow_id >= 10 then
        Alcotest.(check bool) "offset applied" true (pkt.Trace.time >= 300.0))
    c.Trace.packets

let test_trace_churn_shape () =
  let flows = Array.init 200 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let churn () =
    Trace.churn ~duration:10.0 ~epochs:5 ~active:50 ~turnover:0.5
      ~packets_per_epoch:100 ~seed:20 ~flows ()
  in
  let t = churn () in
  Alcotest.(check int) "epochs x packets_per_epoch" 500 (Trace.packet_count t);
  let sorted = ref true in
  for i = 0 to Array.length t.Trace.packets - 2 do
    if t.Trace.packets.(i).Trace.time > t.Trace.packets.(i + 1).Trace.time then
      sorted := false
  done;
  Alcotest.(check bool) "sorted by time" true !sorted;
  (* The first epoch draws only from the initial window; the rotation must
     eventually reach flows outside it. *)
  let outside = ref 0 in
  Array.iter
    (fun pkt ->
      if pkt.Trace.time < 2.0 && pkt.Trace.flow_id >= 50 then
        Alcotest.failf "first epoch drew flow %d outside the window" pkt.Trace.flow_id;
      if pkt.Trace.flow_id >= 50 then incr outside)
    t.Trace.packets;
  Alcotest.(check bool) "window rotated past the initial flows" true (!outside > 0);
  (* Fully deterministic in the seed. *)
  let t' = churn () in
  Alcotest.(check bool) "deterministic" true (t.Trace.packets = t'.Trace.packets)

(* Satellite: streaming edge cases.  A zero-packet stream must terminate
   immediately, and a fill whose batch exceeds the remaining packets must
   return exactly the remainder, then 0 forever. *)
let test_stream_edge_cases () =
  let flows = Array.init 8 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let buffers n = (Array.make n 0.0, Array.make n 0, Array.make n Flow.zero) in
  (* Zero-packet stream: first pull already reports end of stream. *)
  let empty = Trace.steady ~packets:0 ~seed:3 ~flows () in
  let times, ids, fls = buffers 16 in
  Alcotest.(check int) "empty stream yields 0" 0
    (Trace.fill empty ~times ~flow_ids:ids ~flows:fls ~max:16);
  Alcotest.(check int) "still 0 on re-pull" 0
    (Trace.fill empty ~times ~flow_ids:ids ~flows:fls ~max:16);
  (* Batch larger than the remaining packets: the short tail comes back in
     one partial fill. *)
  let s = Trace.steady ~packets:10 ~seed:4 ~flows () in
  let times, ids, fls = buffers 64 in
  Alcotest.(check int) "first pull drains 7" 7
    (Trace.fill s ~times ~flow_ids:ids ~flows:fls ~max:7);
  Alcotest.(check int) "oversized batch returns remainder" 3
    (Trace.fill s ~times ~flow_ids:ids ~flows:fls ~max:64);
  Alcotest.(check int) "exhausted" 0
    (Trace.fill s ~times ~flow_ids:ids ~flows:fls ~max:64);
  (* Same edge cases through the materialised-trace adapter. *)
  let t = Trace.generate ~duration:1.0 ~seed:5 ~flows () in
  let st = Trace.stream_of_trace t in
  let n = Trace.packet_count t in
  let times, ids, fls = buffers (n + 32) in
  Alcotest.(check int) "oversized pull drains the trace" n
    (Trace.fill st ~times ~flow_ids:ids ~flows:fls ~max:(n + 32));
  Alcotest.(check int) "trace stream exhausted" 0
    (Trace.fill st ~times ~flow_ids:ids ~flows:fls ~max:(n + 32))

(* The generators reject impossible shapes with [Invalid_argument]. *)
let test_trace_generators_reject_bad_arguments () =
  let flows = Array.init 8 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let no_flows = [||] in
  Helpers.raises_invalid "churn: no flows" (fun () ->
      Trace.churn ~seed:1 ~flows:no_flows ());
  Helpers.raises_invalid "churn: 0 epochs" (fun () ->
      Trace.churn ~epochs:0 ~seed:1 ~flows ());
  Helpers.raises_invalid "churn: negative packets" (fun () ->
      Trace.churn ~packets_per_epoch:(-1) ~seed:1 ~flows ());
  Helpers.raises_invalid "elephant_mice: no flows" (fun () ->
      Trace.elephant_mice ~seed:1 ~flows:no_flows ());
  Helpers.raises_invalid "elephant_mice: negative packets" (fun () ->
      Trace.elephant_mice ~packets:(-1) ~seed:1 ~flows ());
  Helpers.raises_invalid "drifting_skew: no flows" (fun () ->
      Trace.drifting_skew ~seed:1 ~flows:no_flows ());
  Helpers.raises_invalid "drifting_skew: 0 epochs" (fun () ->
      Trace.drifting_skew ~epochs:0 ~seed:1 ~flows ());
  Helpers.raises_invalid "drifting_skew: negative packets" (fun () ->
      Trace.drifting_skew ~packets_per_epoch:(-1) ~seed:1 ~flows ());
  Helpers.raises_invalid "steady: no flows" (fun () ->
      Trace.steady ~packets:10 ~seed:1 ~flows:no_flows ());
  Helpers.raises_invalid "steady: negative packets" (fun () ->
      Trace.steady ~packets:(-1) ~seed:1 ~flows ())

let test_trace_elephant_mice_shape () =
  let flows = Array.init 1000 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let t =
    Trace.elephant_mice ~duration:10.0 ~elephants:8 ~elephant_share:0.8
      ~packets:4000 ~seed:21 ~flows ()
  in
  Alcotest.(check int) "packet count" 4000 (Trace.packet_count t);
  let elephant_packets =
    Array.fold_left
      (fun acc p -> if p.Trace.flow_id < 8 then acc + 1 else acc)
      0 t.Trace.packets
  in
  (* Bernoulli(0.8) over 4000 draws: stay well inside 5 sigma. *)
  Alcotest.(check bool)
    (Printf.sprintf "elephant share ~0.8 (got %d/4000)" elephant_packets)
    true
    (elephant_packets > 3000 && elephant_packets < 3400);
  let sorted = ref true in
  for i = 0 to Array.length t.Trace.packets - 2 do
    if t.Trace.packets.(i).Trace.time > t.Trace.packets.(i + 1).Trace.time then
      sorted := false
  done;
  Alcotest.(check bool) "sorted by time" true !sorted;
  (* Determinism in seed. *)
  let t' =
    Trace.elephant_mice ~duration:10.0 ~elephants:8 ~elephant_share:0.8
      ~packets:4000 ~seed:21 ~flows ()
  in
  Alcotest.(check bool) "deterministic" true (t.Trace.packets = t'.Trace.packets)

let test_trace_drifting_skew_shape () =
  let flows = Array.init 500 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let t =
    Trace.drifting_skew ~duration:8.0 ~epochs:4 ~drift:100 ~packets_per_epoch:1000
      ~seed:22 ~flows ()
  in
  Alcotest.(check int) "packet count" 4000 (Trace.packet_count t);
  let sorted = ref true in
  for i = 0 to Array.length t.Trace.packets - 2 do
    if t.Trace.packets.(i).Trace.time > t.Trace.packets.(i + 1).Trace.time then
      sorted := false
  done;
  Alcotest.(check bool) "sorted by time" true !sorted;
  (* The popular set drifts: the most frequent flow of the first quarter
     differs from the most frequent flow of the last quarter. *)
  let mode lo hi =
    let counts = Hashtbl.create 64 in
    for i = lo to hi - 1 do
      let id = t.Trace.packets.(i).Trace.flow_id in
      Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
    done;
    Hashtbl.fold (fun id c (bid, bc) -> if c > bc then (id, c) else (bid, bc)) counts (-1, 0)
    |> fst
  in
  Alcotest.(check bool) "heavy-hitter identity rotates" true
    (mode 0 1000 <> mode 3000 4000)

let test_pipebench_churn_shares_population () =
  (* make_churn must derive the identical ruleset and flow population as
     make for the same seed — only the packet schedule differs. *)
  let info = Option.get (Catalog.find "OTL") in
  let base =
    Pipebench.make ~profile:small_profile ~combos:256 ~unique_flows:400
      ~duration:5.0 ~info ~locality:Ruleset.Low ~seed:19 ()
  in
  let churned =
    Pipebench.make_churn ~profile:small_profile ~combos:256 ~unique_flows:400
      ~duration:5.0 ~epochs:4 ~active:64 ~packets_per_epoch:200 ~info
      ~locality:Ruleset.Low ~seed:19 ()
  in
  Alcotest.(check bool) "same flow population" true
    (base.Pipebench.flows = churned.Pipebench.flows);
  Alcotest.(check int) "churn schedule" 800 (Trace.packet_count churned.Pipebench.trace);
  Alcotest.(check int) "rules agree" 
    (Gf_pipeline.Pipeline.rule_count (Pipebench.pipeline base))
    (Gf_pipeline.Pipeline.rule_count (Pipebench.pipeline churned))

let test_pipebench_end_to_end () =
  let info = Option.get (Catalog.find "OTL") in
  let w =
    Pipebench.make ~profile:small_profile ~combos:256 ~unique_flows:400 ~duration:5.0
      ~info ~locality:Ruleset.Low ~seed:19 ()
  in
  Alcotest.(check int) "flows" 400 (Array.length w.Pipebench.flows);
  Alcotest.(check bool) "trace nonempty" true (Trace.packet_count w.Pipebench.trace > 0);
  Alcotest.(check bool) "pipeline populated" true
    (Gf_pipeline.Pipeline.rule_count (Pipebench.pipeline w) > 0)

(* ------------------------- pinned input digests ------------------------- *)

(* Every generator's output, rendered as canonical text and digested.
   Two runs of the same code always agree, so these pins are what catch a
   generator whose output changed: a rewrite for speed must reproduce
   every rule, flow, packet time and RNG draw byte for byte.  Floats are
   rendered as their IEEE bits. *)

let digest render =
  let b = Buffer.create 65536 in
  render b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_float b x = Printf.bprintf b "%Lx\n" (Int64.bits_of_float x)

let add_flow b f =
  Array.iter (fun v -> Printf.bprintf b "%x " v) (Flow.to_array f);
  Buffer.add_char b '\n'

let add_trace b (t : Trace.t) =
  Printf.bprintf b "%d %Lx\n" t.Trace.unique_flows (Int64.bits_of_float t.Trace.duration);
  Array.iter
    (fun (p : Trace.packet) ->
      Printf.bprintf b "%Lx %d " (Int64.bits_of_float p.Trace.time) p.Trace.flow_id;
      add_flow b p.Trace.flow)
    t.Trace.packets

let add_ruleset b rs =
  List.iter
    (fun table ->
      Printf.bprintf b "table %d %s\n" (Gf_pipeline.Oftable.id table)
        (Gf_pipeline.Oftable.name table);
      Gf_pipeline.Oftable.rules table
      |> List.sort (fun (x : Gf_pipeline.Ofrule.t) y -> compare x.id y.id)
      |> List.iter (fun r -> Buffer.add_string b (Format.asprintf "%a\n" Gf_pipeline.Ofrule.pp r)))
    (Gf_pipeline.Pipeline.tables (Ruleset.pipeline rs));
  Printf.bprintf b "rules %d\n" (Ruleset.rule_count rs)

let test_rng_streams_pinned () =
  let module Rng = Gf_util.Rng in
  let draws b rng =
    for _ = 1 to 64 do Printf.bprintf b "%Lx\n" (Rng.bits64 rng) done;
    for _ = 1 to 64 do Printf.bprintf b "%d\n" (Rng.int rng 17) done;
    for _ = 1 to 64 do add_float b (Rng.float rng 1.0) done;
    for _ = 1 to 64 do add_float b (Rng.exponential rng ~mean:2.5) done;
    for _ = 1 to 64 do add_float b (Rng.pareto rng ~alpha:1.25 ~xmin:3.0) done
  in
  Alcotest.(check string) "rng streams" "34c13728d63cf2ba5bf24f4f329b2d26"
    (digest (fun b ->
         let rng = Rng.create 42 in
         draws b rng;
         let child = Rng.split rng in
         draws b child;
         draws b rng;
         let twin = Rng.copy rng in
         draws b twin;
         draws b rng))

let test_classbench_pinned () =
  Alcotest.(check string) "classbench 512 rules" "179bc3a035ff9ed99dd66cab497396c3"
    (digest (fun b ->
         let opt = function None -> "*" | Some v -> string_of_int v in
         Array.iter
           (fun (r : Classbench.rule) ->
             Printf.bprintf b "%x/%d %x/%d %s %s %s %x %x %d %d\n" (fst r.ip_src) (snd r.ip_src)
               (fst r.ip_dst) (snd r.ip_dst) (opt r.proto) (opt r.tp_src) (opt r.tp_dst)
               r.eth_src r.eth_dst r.vlan r.in_port)
           (Classbench.generate (Classbench.create ~seed:7 ()) 512)))

let pinned_ruleset code = Ruleset.build ~combos:1024 ~info:(Option.get (Catalog.find code)) ~seed:42 ()

let pinned_psc = lazy (pinned_ruleset "PSC")

let test_ruleset_pinned () =
  Alcotest.(check string) "PSC ruleset" "9fe10c8a7c4f6930dfdb1ac0a43ed9d6" (digest (fun b -> add_ruleset b (Lazy.force pinned_psc)));
  Alcotest.(check string) "OLS ruleset" "dfa5ac8d85ae4d3897de5316808edf76" (digest (fun b -> add_ruleset b (pinned_ruleset "OLS")))

let pinned_flows locality = Ruleset.sample_flows (Lazy.force pinned_psc) ~seed:9 ~locality ~n:500

let test_sample_flows_pinned () =
  Alcotest.(check string) "high-locality flows" "2dea22b86b3c076cb02c3cea7fdbc8f2"
    (digest (fun b -> Array.iter (add_flow b) (pinned_flows Ruleset.High)));
  Alcotest.(check string) "low-locality flows" "7f9ed8ab648c37961176802765e1f442"
    (digest (fun b -> Array.iter (add_flow b) (pinned_flows Ruleset.Low)))

let test_traces_pinned () =
  let flows = pinned_flows Ruleset.High in
  let trace name expected t = Alcotest.(check string) name expected (digest (fun b -> add_trace b t)) in
  trace "generate" "a153c63a1f912bc34700b97dd05d880e" (Trace.generate ~seed:5 ~flows ());
  trace "churn" "972134df724de5034558e2a8332c81e1"
    (Trace.churn ~epochs:10 ~active:100 ~packets_per_epoch:400 ~seed:6 ~flows ());
  trace "drifting_skew" "6ca19fffb931563843abb97d3e95e4e4"
    (Trace.drifting_skew ~epochs:4 ~packets_per_epoch:1000 ~seed:7 ~flows ());
  trace "elephant_mice" "ffd41730f6cc68674986d5f4e44ab9d2" (Trace.elephant_mice ~packets:4000 ~seed:8 ~flows ());
  trace "concat" "30af0ecab7fe09fa1c764ca2904487d8"
    (Trace.concat
       (Trace.generate ~duration:30.0 ~seed:10 ~flows ())
       (Trace.generate ~duration:30.0 ~seed:11 ~flows:(Array.sub flows 0 250) ())
       ~offset:10.0);
  (* A trace merged with itself ties every time: the order of equal times
     is pinned too. *)
  let a = Trace.generate ~duration:30.0 ~seed:10 ~flows () in
  trace "concat, every time tied" "14f5099c49b556f69758f548bec5e5a5" (Trace.concat a a ~offset:0.0);
  let s = Trace.steady ~packets:100_000 ~seed:12 ~flows () in
  let times = Array.make 4096 0.0 and flow_ids = Array.make 4096 0 in
  let out = Array.make 4096 Flow.zero in
  let k = Trace.fill s ~times ~flow_ids ~flows:out ~max:4096 in
  trace "steady, first 4096 packets" "05ff1b0f15b17aa14a4d60addd6ea9e8"
    {
      Trace.packets =
        Array.init k (fun i -> { Trace.time = times.(i); flow_id = flow_ids.(i); flow = out.(i) });
      unique_flows = Array.length flows;
      duration = 0.0;
    }

(* A ruleset that cannot yield [n] flows returns every distinct flow it
   found, not [n].  With exact addresses and pinned ports, a combo's entry
   view is one concrete flow unless it is an ICMP combo (whose ports stay
   wildcarded), so sampling a single exact combo yields exactly one. *)
let test_sample_flows_at_most_n () =
  let exact =
    {
      small_profile with
      Classbench.src_exact = 1.0;
      dst_exact = 1.0;
      proto_any = 0.0;
      tp_src_pinned = 1.0;
      tp_dst_any = 0.0;
    }
  in
  let rs = Ruleset.build ~profile:exact ~combos:4 ~info:(Option.get (Catalog.find "PSC")) ~seed:3 () in
  let yields =
    List.init 4 (fun c ->
        let flows =
          Ruleset.sample_flows rs ~combo_filter:(Int.equal c) ~seed:1 ~locality:Ruleset.Low ~n:50
        in
        let seen = Flow.Tbl.create 50 in
        Array.iter (fun f -> Flow.Tbl.replace seen f ()) flows;
        Alcotest.(check int) "all distinct" (Array.length flows) (Flow.Tbl.length seen);
        Alcotest.(check bool) "at most n" true (Array.length flows <= 50);
        Array.length flows)
  in
  Alcotest.(check bool)
    (Printf.sprintf "an exact combo yields one flow (yields %s)"
       (String.concat ", " (List.map string_of_int yields)))
    true (List.mem 1 yields)

(* [concat] orders equal times exactly as [Array.sort] orders the
   appended packets, whatever the sizes: times drawn from three values tie
   almost everywhere. *)
let test_concat_ties_match_array_sort () =
  let rng = Gf_util.Rng.create 5 in
  let trace n base =
    {
      Trace.packets =
        Array.init n (fun i ->
            { Trace.time = float_of_int (Gf_util.Rng.int rng 3); flow_id = base + i; flow = Flow.zero });
      unique_flows = 1000;
      duration = 3.0;
    }
  in
  List.iter
    (fun (na, nb) ->
      let a = trace na 0 and b = trace nb 0 in
      let expected =
        Array.append a.Trace.packets
          (Array.map
             (fun p -> { p with Trace.time = p.Trace.time +. 1.0; flow_id = p.Trace.flow_id + 1000 })
             b.Trace.packets)
      in
      Array.sort (fun p q -> compare p.Trace.time q.Trace.time) expected;
      let got = (Trace.concat a b ~offset:1.0).Trace.packets in
      Alcotest.(check (list (pair int (float 0.))))
        (Printf.sprintf "%d + %d packets" na nb)
        (Array.to_list (Array.map (fun p -> (p.Trace.flow_id, p.Trace.time)) expected))
        (Array.to_list (Array.map (fun p -> (p.Trace.flow_id, p.Trace.time)) got)))
    [ (0, 0); (1, 0); (0, 2); (2, 1); (3, 3); (10, 7); (100, 100); (1000, 337) ]

(* The steady source fills the caller's buffers drawing through [Rng] and
   [Zipf] alone.  In a build without cross-module inlining (dune's dev
   profile) each packet's two float draws box their results, 2 words each,
   and each [Trace.fill] call builds its partial applications (17 words;
   the pin allows 32); a release build allocates 0.  With the RNG state
   boxed on every draw, a dev build measured 20 words per packet. *)
let test_steady_fill_allocation_free () =
  let flows = Array.init 2000 (fun i -> Flow.make [ (Gf_flow.Field.Vlan, i) ]) in
  let s = Trace.steady ~packets:1_000_000 ~seed:3 ~flows () in
  let times = Array.make 256 0.0 and flow_ids = Array.make 256 0 in
  let out = Array.make 256 Flow.zero in
  let packets = ref 0 and calls = ref 0 in
  let words =
    Helpers.minor_words (fun () ->
        while !packets < 20_000 do
          incr calls;
          packets := !packets + Trace.fill s ~times ~flow_ids ~flows:out ~max:256
        done)
  in
  let per_packet = (words -. (32.0 *. float_of_int !calls)) /. float_of_int !packets in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per packet <= 4" per_packet) true
    (per_packet <= 4.0)

(* Building PSC's 1,024 combos allocates a bounded number of minor words
   per combo.  A dev build measured 2,239 with a [Fmatch.with_prefix] copy
   per hop field, a polymorphic dedup table and [(string * int)] weight
   keys, and 581 with single-pass hop matches, the hash-once monomorphic
   dedup and int-keyed weight tables. *)
let test_ruleset_build_allocation () =
  let info = Option.get (Catalog.find "PSC") in
  let words = Helpers.minor_words (fun () -> ignore (Ruleset.build ~combos:1024 ~info ~seed:42 ())) in
  let per_combo = words /. 1024.0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f words per combo <= 1000" per_combo) true
    (per_combo <= 1000.0)

let suite =
  [
    ("classbench deterministic", `Quick, test_classbench_deterministic);
    ("classbench well-formed", `Quick, test_classbench_well_formed);
    ("classbench sharing monotone (fig 4)", `Quick, test_classbench_sharing_monotone);
    ("classbench sharing rejects bad k", `Quick, test_classbench_sharing_rejects_bad_k);
    ("gateway macs distinct", `Quick, test_gateway_macs_distinct_oui);
    ("ruleset builds all pipelines", `Quick, test_ruleset_builds_all_pipelines);
    ("ruleset deterministic", `Quick, test_ruleset_deterministic);
    ("flows unique and executable", `Quick, test_sampled_flows_unique_and_executable);
    ("flows exercise rules", `Quick, test_flows_hit_rules);
    ("high locality concentrates", `Quick, test_high_locality_concentrates);
    ("trace sorted", `Quick, test_trace_sorted_and_counts);
    ("trace deterministic", `Quick, test_trace_deterministic);
    ("trace concat", `Quick, test_trace_concat);
    ("trace churn shape", `Quick, test_trace_churn_shape);
    ("stream edge cases", `Quick, test_stream_edge_cases);
    ("trace generators reject bad arguments", `Quick,
     test_trace_generators_reject_bad_arguments);
    ("trace elephant/mice shape", `Quick, test_trace_elephant_mice_shape);
    ("trace drifting skew shape", `Quick, test_trace_drifting_skew_shape);
    ("pipebench churn", `Quick, test_pipebench_churn_shares_population);
    ("pipebench end-to-end", `Quick, test_pipebench_end_to_end);
    ("rng streams pinned", `Quick, test_rng_streams_pinned);
    ("classbench pinned", `Quick, test_classbench_pinned);
    ("ruleset pinned", `Quick, test_ruleset_pinned);
    ("sample_flows pinned", `Quick, test_sample_flows_pinned);
    ("traces pinned", `Quick, test_traces_pinned);
    ("sample_flows yields at most n", `Quick, test_sample_flows_at_most_n);
    ("concat ties match Array.sort", `Quick, test_concat_ties_match_array_sort);
    ("steady fill allocation-free", `Quick, test_steady_fill_allocation_free);
    ("ruleset build allocation", `Quick, test_ruleset_build_allocation);
  ]
