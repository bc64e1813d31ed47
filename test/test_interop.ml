(* Tests for the interop surfaces: the ovs-ofctl-style flow text dialect,
   the P4 code generator and workload serialization — plus the EMC level of
   the datapath. *)

module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Headers = Gf_flow.Headers
module Action = Gf_pipeline.Action
module Ofp_text = Gf_pipeline.Ofp_text
module Oftable = Gf_pipeline.Oftable
module Pipeline = Gf_pipeline.Pipeline
module Executor = Gf_pipeline.Executor
module P4gen = Gf_nic.P4gen
module Serial = Gf_workload.Serial
module Trace = Gf_workload.Trace

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec at i = i + m <= n && (String.sub haystack i m = needle || at (i + 1)) in
  at 0

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let test_parse_basic_flow () =
  let f =
    ok
      (Ofp_text.parse_flow
         "table=4,priority=100,ip,nw_dst=10.1.2.0/24,actions=mod_dl_dst:02:00:00:00:0f:fe,goto_table:5")
  in
  Alcotest.(check int) "table" 4 f.Ofp_text.table;
  Alcotest.(check int) "priority" 100 f.Ofp_text.priority;
  Alcotest.(check bool) "matches inside prefix" true
    (Gf_flow.Fmatch.matches f.Ofp_text.fmatch
       (Flow.make
          [ (Field.Eth_type, Headers.ethertype_ipv4); (Field.Ip_dst, Headers.ipv4 "10.1.2.77") ]));
  Alcotest.(check bool) "rejects outside prefix" false
    (Gf_flow.Fmatch.matches f.Ofp_text.fmatch
       (Flow.make
          [ (Field.Eth_type, Headers.ethertype_ipv4); (Field.Ip_dst, Headers.ipv4 "10.1.3.1") ]));
  (match f.Ofp_text.action.Action.control with
  | Action.Goto 5 -> ()
  | _ -> Alcotest.fail "expected goto_table:5");
  Alcotest.(check bool) "rewrite parsed" true
    (List.mem_assoc Field.Eth_dst f.Ofp_text.action.Action.set_fields)

let test_parse_shorthands () =
  let f = ok (Ofp_text.parse_flow "tcp,tp_dst=443,actions=output:7") in
  let flow =
    Headers.tcp ~src:(Headers.ipv4 "10.0.0.1") ~dst:(Headers.ipv4 "10.0.0.2") ~sport:5
      ~dport:443 ()
  in
  Alcotest.(check bool) "tcp shorthand binds ethertype+proto" true
    (Gf_flow.Fmatch.matches f.Ofp_text.fmatch flow);
  Alcotest.(check int) "default table" 0 f.Ofp_text.table;
  Alcotest.(check int) "default priority" 32768 f.Ofp_text.priority

let test_parse_resubmit_and_drop () =
  let f = ok (Ofp_text.parse_flow "in_port=3,actions=resubmit(,9)") in
  (match f.Ofp_text.action.Action.control with
  | Action.Goto 9 -> ()
  | _ -> Alcotest.fail "resubmit should map to goto");
  let d = ok (Ofp_text.parse_flow "priority=0,actions=drop") in
  match d.Ofp_text.action.Action.control with
  | Action.Terminal Action.Drop -> ()
  | _ -> Alcotest.fail "expected drop"

let test_parse_errors () =
  let err s =
    match Ofp_text.parse_flow s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
  in
  err "table=1,priority=5";
  (* no actions *)
  err "bogus_key=1,actions=drop";
  err "nw_dst=10.0.0.0/40,actions=drop";
  err "actions=output:1,drop";
  (* two decisions *)
  err "actions=frobnicate"

let test_roundtrip () =
  let lines =
    [
      "table=0,priority=10,in_port=2,dl_src=02:00:00:00:00:01,actions=goto_table:1";
      "table=1,priority=20,ip,nw_dst=192.168.0.0/16,actions=mod_nw_dst:10.0.0.1,output:3";
      "table=1,priority=0,actions=controller";
      "table=2,priority=7,udp,tp_src=53,actions=drop";
    ]
  in
  List.iter
    (fun line ->
      let f = ok (Ofp_text.parse_flow line) in
      let printed = Ofp_text.print_flow f in
      let f' = ok (Ofp_text.parse_flow printed) in
      Alcotest.(check int) "table survives" f.Ofp_text.table f'.Ofp_text.table;
      Alcotest.(check int) "priority survives" f.Ofp_text.priority f'.Ofp_text.priority;
      Alcotest.(check bool) "match survives" true
        (Gf_flow.Fmatch.equal f.Ofp_text.fmatch f'.Ofp_text.fmatch);
      Alcotest.(check bool) "action survives" true
        (Action.equal f.Ofp_text.action f'.Ofp_text.action))
    lines

let test_load_into_and_execute () =
  let mk id miss =
    Oftable.create ~id ~name:(Printf.sprintf "t%d" id)
      ~match_fields:(Field.Set.of_list (Array.to_list Field.all))
      ~miss
  in
  let p =
    Pipeline.create ~name:"loaded" ~entry:0
      [ mk 0 (Action.goto 1); mk 1 (Action.drop ()) ]
  in
  let text =
    "# a tiny L2 pipeline\n\
     table=0,priority=10,dl_src=02:00:00:00:00:01,actions=goto_table:1\n\n\
     table=1,priority=10,dl_dst=02:00:00:00:00:02,actions=output:4\n"
  in
  Alcotest.(check int) "two rules loaded" 2 (ok (Ofp_text.load_into p text));
  let flow =
    Headers.l2 ~eth_src:(Headers.mac "02:00:00:00:00:01")
      ~eth_dst:(Headers.mac "02:00:00:00:00:02") ()
  in
  (match Executor.terminal_of p flow with
  | Ok (Action.Output 4, _) -> ()
  | _ -> Alcotest.fail "loaded pipeline misbehaves");
  (* Dump contains both rules and reparses. *)
  let dump = Ofp_text.dump_pipeline p in
  Alcotest.(check int) "dump reparses" 2 (List.length (ok (Ofp_text.parse_flows dump)))

let test_load_into_unknown_table () =
  let p =
    Pipeline.create ~name:"one" ~entry:0
      [
        Oftable.create ~id:0 ~name:"t0" ~match_fields:Field.Set.empty
          ~miss:(Action.drop ());
      ]
  in
  match Ofp_text.load_into p "table=9,actions=drop" with
  | Error _ -> Alcotest.(check int) "nothing added" 0 (Pipeline.rule_count p)
  | Ok _ -> Alcotest.fail "expected unknown-table error"

let test_p4gen_structure () =
  let p4 = P4gen.emit ~tables:4 ~table_capacity:8192 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains p4 needle))
    [
      "table gf1";
      "table gf4";
      "meta.table_tag    : exact";
      "hdr.ipv4.dst      : ternary";
      "size = 8192;";
      "update_table_tag";
      "SLOWPATH_PORT";
      "V1Switch";
    ];
  Alcotest.(check bool) "no gf5 for K=4" false (contains p4 "table gf5");
  (* Deterministic. *)
  Alcotest.(check string) "deterministic" p4 (P4gen.emit ~tables:4 ~table_capacity:8192)

let test_p4gen_scales () =
  let p2 = P4gen.emit ~tables:2 ~table_capacity:100 in
  Alcotest.(check bool) "K=2 has gf2" true (contains p2 "table gf2");
  Alcotest.(check bool) "K=2 lacks gf3" false (contains p2 "table gf3");
  Alcotest.(check bool) "capacity propagated" true (contains p2 "size = 100;")

let test_serial_flows_roundtrip () =
  let rng = Gf_util.Rng.create 5 in
  let flows = Array.init 64 (fun _ -> Helpers.pool_flow rng) in
  let text = Serial.flows_to_string flows in
  let back = ok (Serial.flows_of_string text) in
  Alcotest.(check int) "count" (Array.length flows) (Array.length back);
  Array.iteri
    (fun i f -> Alcotest.(check bool) "flow equal" true (Flow.equal f back.(i)))
    flows

let test_serial_trace_roundtrip () =
  let flows = Array.init 10 (fun i -> Flow.make [ (Field.Vlan, i + 1) ]) in
  let t = Trace.generate ~duration:5.0 ~seed:9 ~flows () in
  let back = ok (Serial.trace_of_string (Serial.trace_to_string t)) in
  Alcotest.(check int) "packets" (Trace.packet_count t) (Trace.packet_count back);
  Alcotest.(check int) "flows" t.Trace.unique_flows back.Trace.unique_flows;
  Array.iteri
    (fun i (p : Trace.packet) ->
      let q = back.Trace.packets.(i) in
      Alcotest.(check int) "flow id" p.Trace.flow_id q.Trace.flow_id;
      Alcotest.(check bool) "flow value" true (Flow.equal p.Trace.flow q.Trace.flow);
      if Float.abs (p.Trace.time -. q.Trace.time) > 1e-5 then
        Alcotest.fail "timestamp drift")
    t.Trace.packets

let test_serial_rejects_garbage () =
  (match Serial.flows_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "flows header check");
  match Serial.trace_of_string "# gigaflow-trace v1\nduration x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trace duration check"

(* EMC level: repeated exact packets after a HW-miss should be absorbed by
   the exact-match cache instead of the wildcard search. *)
let test_emc_absorbs_repeats () =
  let rng = Gf_util.Rng.create 72 in
  let p = Helpers.random_pipeline rng ~tables:3 ~rules_per_table:6 in
  let cfg =
    Helpers.with_emc_capacity 1024
      (Gf_sim.Datapath.emc_mf_sw ~mf_capacity:1 (* force HW misses *) ())
  in
  let dp = Gf_sim.Datapath.create cfg p in
  (* Occupy the single SmartNIC slot with a different flow so the test flow
     can never be offloaded. *)
  let rec occupy n =
    if n > 0 then begin
      ignore (Gf_sim.Datapath.process dp ~now:0.0 (Helpers.pool_flow rng));
      occupy (n - 1)
    end
  in
  occupy 3;
  let flow = Helpers.pool_flow rng in
  let outcomes =
    List.init 5 (fun i ->
        let o, _, _ = Gf_sim.Datapath.process dp ~now:(1.0 +. float_of_int i) flow in
        o)
  in
  (match outcomes with
  | first :: rest ->
      Alcotest.(check bool) "first packet not a SmartNIC hit" true
        (first <> Gf_sim.Datapath.Hw_hit);
      Alcotest.(check bool) "repeats served by software caches" true
        (List.for_all (fun o -> o = Gf_sim.Datapath.Sw_hit) rest)
  | [] -> assert false);
  (* And the decisions agree with the pipeline. *)
  let _, terminal, _ = Gf_sim.Datapath.process dp ~now:9.0 flow in
  match (terminal, Executor.terminal_of p flow) with
  | Some t, Ok (t', _) ->
      Alcotest.(check bool) "decision consistent" true (Action.terminal_equal t t')
  | _ -> Alcotest.fail "missing decision"

let suite =
  [
    ("ofp parse basic", `Quick, test_parse_basic_flow);
    ("ofp shorthands", `Quick, test_parse_shorthands);
    ("ofp resubmit/drop", `Quick, test_parse_resubmit_and_drop);
    ("ofp parse errors", `Quick, test_parse_errors);
    ("ofp roundtrip", `Quick, test_roundtrip);
    ("ofp load_into + execute", `Quick, test_load_into_and_execute);
    ("ofp load_into unknown table", `Quick, test_load_into_unknown_table);
    ("p4gen structure", `Quick, test_p4gen_structure);
    ("p4gen scales with K", `Quick, test_p4gen_scales);
    ("serial flows roundtrip", `Quick, test_serial_flows_roundtrip);
    ("serial trace roundtrip", `Quick, test_serial_trace_roundtrip);
    ("serial rejects garbage", `Quick, test_serial_rejects_garbage);
    ("datapath EMC absorbs repeats", `Quick, test_emc_absorbs_repeats);
  ]
