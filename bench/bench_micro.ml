(* Bechamel microbenchmarks of the core operations: classifier lookups, the
   LTM cache walk, slowpath execution, partitioning and rule generation. *)

open Common
module Ruleset = Gf_workload.Ruleset
module Executor = Gf_pipeline.Executor
module Partitioner = Gf_core.Partitioner
module Rulegen = Gf_core.Rulegen
module Gigaflow = Gf_core.Gigaflow
module Megaflow = Gf_cache.Megaflow
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Action = Gf_pipeline.Action
module Ltm_rule = Gf_core.Ltm_rule
module Ltm_table = Gf_core.Ltm_table
module Tss = Gf_classifier.Tss
module Entry = Gf_classifier.Entry
module Oftable = Gf_pipeline.Oftable
module Pipeline = Gf_pipeline.Pipeline
open Bechamel
open Toolkit

let benchmarks () =
  (* A modest shared workload: one pipeline, prewarmed caches. *)
  let profile =
    {
      Gf_workload.Classbench.acl_profile with
      Gf_workload.Classbench.endpoints = 1024;
      subnets = 128;
      services = 256;
    }
  in
  let w =
    Gf_workload.Pipebench.make ~profile ~combos:8192 ~unique_flows:10_000
      ~duration:30.0 ~info:(info "PSC") ~locality:Ruleset.High ~seed:!seed ()
  in
  let pipeline = Gf_workload.Pipebench.pipeline w in
  let flows = w.Gf_workload.Pipebench.flows in
  let gf = Gigaflow.create (Gf_core.Config.v ~tables:4 ~table_capacity:8192 ()) in
  let mf = Megaflow.create ~capacity:32_768 () in
  Array.iteri
    (fun i flow ->
      if i < 8000 then begin
        ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline flow);
        match Executor.execute pipeline flow with
        | Ok tr -> ignore (Megaflow.install mf ~now:0.0 ~version:0 tr)
        | Error _ -> ()
      end)
    flows;
  let traversals =
    Array.to_list flows |> List.filteri (fun i _ -> i < 64)
    |> List.filter_map (fun flow ->
           match Executor.execute pipeline flow with Ok tr -> Some tr | Error _ -> None)
    |> Array.of_list
  in
  (* Hash-spread canaries: prefix-masked keys differ only in high bits, so
     a hash whose low bits ignore them turns these finds into chain walks,
     which shows as an ns/op jump. *)
  let masked_flows =
    let mask = Mask.prefix Field.Ip_dst 24 in
    Array.map (Mask.apply mask) flows
  in
  let masked_tbl = Flow.Tbl.create 1024 in
  Array.iter (fun f -> Flow.Tbl.replace masked_tbl f ()) masked_flows;
  let ltm_rule i =
    {
      Ltm_rule.tag_in = 0;
      fmatch =
        Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:((10 lsl 24) lor (i lsl 8)) ~len:24;
      priority = 1;
      commit = [];
      next = Ltm_rule.Done Action.Drop;
      origin = { Ltm_rule.parent_flow = Flow.zero; length = 1; version = 0 };
    }
  in
  let ltm_table = Ltm_table.create ~capacity:2048 in
  for i = 0 to 2047 do
    ignore (Ltm_table.insert ltm_table ~now:0.0 (ltm_rule i))
  done;
  (* Structurally equal, physically distinct probes, as an install plans. *)
  let ltm_probes = Array.init 2048 ltm_rule in
  (* A mid-run caida_high LTM table: 12 tuples, each mask constraining 1-5
     fields, ~2k entries over 4 priorities, probed with unmasked flows. *)
  let tss_masks =
    let p f len = Mask.prefix f len and x fs = Mask.exact_fields fs in
    List.map
      (List.fold_left Mask.union Mask.empty)
      [
        [ x [ Field.In_port ] ];
        [ p Field.Ip_dst 24 ];
        [ p Field.Ip_dst 16; x [ Field.Tp_dst ] ];
        [ p Field.Ip_src 24; p Field.Ip_dst 24 ];
        [ x [ Field.Eth_type; Field.Ip_proto; Field.Tp_dst ] ];
        [ x [ Field.In_port; Field.Ip_dst ] ];
        [ p Field.Ip_src 16; x [ Field.Tp_src ] ];
        [ x [ Field.Vlan ]; p Field.Ip_dst 24 ];
        [ x [ Field.Eth_dst; Field.Vlan ] ];
        [ x [ Field.Ip_src; Field.Ip_dst; Field.Tp_dst ] ];
        [ x [ Field.In_port; Field.Eth_src; Field.Eth_type; Field.Ip_proto ] ];
        [ p Field.Ip_dst 8; x [ Field.Tp_src; Field.Tp_dst; Field.Ip_proto; Field.In_port ] ];
      ]
    |> Array.of_list
  in
  let tss = Tss.create () in
  for i = 0 to 2047 do
    let mask = tss_masks.(i mod Array.length tss_masks) in
    let pattern = flows.(i * 3 mod Array.length flows) in
    Tss.insert tss
      (Entry.v ~key:i ~fmatch:(Fmatch.v ~pattern ~mask) ~priority:(1 + (i mod 4)) ())
  done;
  let idx = ref 0 in
  let next arr =
    idx := (!idx + 1) land 0xFFFF;
    arr.(!idx mod Array.length arr)
  in
  (* Insert, look up, remove: an LTM table's write-then-read pattern under
     churn, where each lookup sees the tuple order the writes left.
     Priority 5 lifts its tuple's max, so some inserts re-place a tuple. *)
  let tss_write = ref 0 in
  let tss_first_lookup_after_insert () =
    let i = !tss_write in
    tss_write := i + 1;
    let key = 1_000_000 + i in
    Tss.insert tss
      (Entry.v ~key
         ~fmatch:(Fmatch.v ~pattern:flows.(i mod Array.length flows)
                    ~mask:tss_masks.(i mod Array.length tss_masks))
         ~priority:(1 + (i mod 5)) ());
    ignore (Tss.lookup tss (next flows));
    ignore (Tss.remove tss key)
  in
  (* A full 4x128 LTM under LRU: nearly every install of a fresh
     partitioned traversal first evicts a tag-chain-safe victim. *)
  let ltm_rule_lists =
    Array.to_list flows |> List.filteri (fun i _ -> i < 4096)
    |> List.filter_map (fun flow ->
           match Executor.execute pipeline flow with
           | Ok tr ->
               let segs = Partitioner.partition Partitioner.Disjoint ~max_segments:4 tr in
               Some (Rulegen.rules_of_partition ~version:0 tr segs)
           | Error _ -> None)
    |> Array.of_list
  in
  let ltm_full =
    Ltm_cache.create
      (Gf_core.Config.v ~tables:4 ~table_capacity:128 ~policy:Gf_cache.Evict.Lru ())
  in
  let ltm_clock = ref 0.0 in
  let ltm_pressure_install () =
    ltm_clock := !ltm_clock +. 1.0;
    ignore (Ltm_cache.install ltm_full ~now:!ltm_clock (next ltm_rule_lists))
  in
  for _ = 1 to 2048 do
    ltm_pressure_install ()
  done;
  let oftables = Array.of_list (Pipeline.tables pipeline) in
  let table_idx = ref 0 in
  let next_table () =
    table_idx := (!table_idx + 1) mod Array.length oftables;
    oftables.(!table_idx)
  in
  [
    Test.make ~name:"slowpath: pipeline execute (PSC)"
      (Staged.stage (fun () -> ignore (Executor.execute pipeline (next flows))));
    Test.make ~name:"megaflow: hw cache lookup"
      (Staged.stage (fun () -> ignore (Megaflow.lookup mf ~now:1.0 (next flows))));
    Test.make ~name:"gigaflow: LTM cache walk"
      (Staged.stage (fun () -> ignore (Gigaflow.lookup gf ~now:1.0 ~pipeline (next flows))));
    Test.make ~name:"tss: lookup, 12 tuples ~2k entries"
      (Staged.stage (fun () -> ignore (Tss.lookup tss (next flows))));
    Test.make ~name:"tss: first lookup after insert" (Staged.stage tss_first_lookup_after_insert);
    Test.make ~name:"ltm: pressure install, 4x128 full, LRU" (Staged.stage ltm_pressure_install);
    Test.make ~name:"oftable: lookup (PSC)"
      (Staged.stage (fun () -> ignore (Oftable.lookup (next_table ()) (next flows))));
    Test.make ~name:"flow tbl: find_opt, ip_dst/24-masked keys"
      (Staged.stage (fun () -> ignore (Flow.Tbl.find_opt masked_tbl (next masked_flows))));
    Test.make ~name:"ltm table: find_identical, 2k rules one table"
      (Staged.stage (fun () -> ignore (Ltm_table.find_identical ltm_table (next ltm_probes))));
    Test.make ~name:"partitioner: disjoint DP"
      (Staged.stage (fun () ->
           ignore
             (Partitioner.partition Partitioner.Disjoint ~max_segments:4
                (next traversals))));
    Test.make ~name:"rulegen: rules_of_partition"
      (Staged.stage (fun () ->
           let tr = next traversals in
           let segs = Partitioner.partition Partitioner.Disjoint ~max_segments:4 tr in
           ignore (Rulegen.rules_of_partition ~version:0 tr segs)));
  ]

let run () =
  section "Microbenchmarks (Bechamel): core operation costs";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let tests = benchmarks () in
  let results =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        (Test.name test, results))
      tests
  in
  let t = Tablefmt.create [ "Operation"; "ns/op (monotonic clock)" ] in
  List.iter
    (fun (name, raw) ->
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          (Instance.monotonic_clock) raw
      in
      Hashtbl.iter
        (fun _ result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Tablefmt.add_row t [ name; Printf.sprintf "%.0f" est ]
          | _ -> Tablefmt.add_row t [ name; "n/a" ])
        analyzed)
    results;
  Tablefmt.print t;
  note "Simulator throughput context: one packet = one cache walk; a miss";
  note "adds slowpath execution + partitioning + rule generation."
