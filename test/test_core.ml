(* Tests for gigaflow.core: Partitioner, Rulegen, Ltm_table, Ltm_cache,
   Coverage, revalidation and the Gigaflow facade.

   The central property is END-TO-END CONSISTENCY: any packet that hits the
   Gigaflow LTM cache — possibly by chaining sub-traversals installed by
   DIFFERENT flows (cross-producting) — must receive exactly the decision
   and header rewrites the full slowpath pipeline would produce. *)

open Helpers
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Hit = Gf_cache.Hit
module Install = Gf_cache.Install
module Mask = Gf_flow.Mask
module Action = Gf_pipeline.Action
module Executor = Gf_pipeline.Executor
module Traversal = Gf_pipeline.Traversal
module Pipeline = Gf_pipeline.Pipeline
module Partitioner = Gf_core.Partitioner
module Rulegen = Gf_core.Rulegen
module Ltm_rule = Gf_core.Ltm_rule
module Ltm_table = Gf_core.Ltm_table
module Ltm_cache = Gf_core.Ltm_cache
module Coverage = Gf_core.Coverage
module Config = Gf_core.Config
module Gigaflow = Gf_core.Gigaflow

(* --------------------------- Partitioner --------------------------- *)

let test_coherent () =
  let s = Field.Set.of_list in
  let fieldsets =
    [|
      s [ Field.In_port ];
      s [ Field.In_port; Field.Vlan ];
      s [ Field.Eth_src ];
      s [ Field.Ip_dst ];
      s [];
    |]
  in
  Alcotest.(check bool) "chained overlap" true
    (Partitioner.coherent fieldsets ~first:0 ~last:1);
  Alcotest.(check bool) "disjoint pair" false
    (Partitioner.coherent fieldsets ~first:1 ~last:2);
  Alcotest.(check bool) "singleton" true (Partitioner.coherent fieldsets ~first:3 ~last:3);
  Alcotest.(check bool) "empty step is neutral" true
    (Partitioner.coherent fieldsets ~first:3 ~last:4);
  Alcotest.(check bool) "non-adjacent overlap connects" true
    (Partitioner.coherent
       [| s [ Field.Eth_src ]; s [ Field.Ip_dst ]; s [ Field.Eth_src; Field.Ip_dst ] |]
       ~first:0 ~last:2)

let run_traversal rng p =
  let rec try_flow n =
    if n = 0 then None
    else
      let flow = pool_flow rng in
      match Executor.execute p flow with
      | Ok tr when Traversal.length tr >= 2 -> Some tr
      | Ok _ | Error _ -> try_flow (n - 1)
  in
  try_flow 50

let check_partition_shape ~n ~max_segments segments =
  let rec go expected = function
    | [] -> Alcotest.(check int) "covers all steps" n expected
    | s :: rest ->
        Alcotest.(check int) "contiguous" expected s.Partitioner.first;
        Alcotest.(check bool) "ordered" true (s.Partitioner.last >= s.Partitioner.first);
        go (s.Partitioner.last + 1) rest
  in
  go 0 segments;
  Alcotest.(check bool) "within budget" true (List.length segments <= max_segments)

let prop_partition_valid =
  QCheck2.Test.make ~name:"partitions are contiguous covers within budget" ~count:60
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, k) ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
      match run_traversal rng p with
      | None -> true
      | Some tr ->
          let n = Traversal.length tr in
          List.for_all
            (fun scheme ->
              let segments =
                Partitioner.partition ~rng scheme ~max_segments:k tr
              in
              check_partition_shape ~n ~max_segments:k segments;
              true)
            [ Partitioner.Disjoint; Partitioner.Random; Partitioner.One_to_one ])

let prop_partition_optimal =
  QCheck2.Test.make ~name:"DP partition matches brute force optimum" ~count:60
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 5))
    (fun (seed, k) ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
      match run_traversal rng p with
      | None -> true
      | Some tr ->
          let segments = Partitioner.partition Partitioner.Disjoint ~max_segments:k tr in
          let score, penalty = Partitioner.evaluate tr segments in
          let bscore, bpenalty, bsegs = Partitioner.brute_force_best tr ~max_segments:k in
          score = bscore && penalty = bpenalty && List.length segments = bsegs)

(* A synthetic traversal of [n] steps over a few fields, so coherence,
   incoherence and overwrites all occur: each step consults 0-3 fields
   under full or prefix masks and its action overwrites 0-2 fields. *)
let random_steps_traversal rng n =
  let pool = [| Field.In_port; Field.Vlan; Field.Ip_src; Field.Ip_dst; Field.Tp_dst |] in
  let step table_id =
    let fields = List.init (Gf_util.Rng.int rng 4) (fun _ -> Gf_util.Rng.pick rng pool) in
    let wildcard =
      Mask.make
        (List.map
           (fun f ->
             let width = Field.width f in
             (f, Gf_util.Bitops.prefix_mask ~width (1 + Gf_util.Rng.int rng width)))
           fields)
    in
    let set_fields =
      List.init (Gf_util.Rng.int rng 3) (fun _ -> (Gf_util.Rng.pick rng pool, 1))
    in
    {
      Traversal.table_id;
      outcome = `Table_miss;
      action = Action.goto ~set_fields (table_id + 1);
      wildcard;
      flow_in = Flow.zero;
      flow_out = Flow.zero;
      probes = 1;
    }
  in
  {
    Traversal.input = Flow.zero;
    steps = Array.init n step;
    terminal = Action.Drop;
    output = Flow.zero;
  }

(* Property: the incremental partition tables agree with the definition on
   every single segment — length if [coherent], else 0, plus the wildcard
   bits of an incoherent segment.  [prop_partition_optimal] cannot see a
   table bug: the DP and [brute_force_best] read the same tables. *)
let prop_partition_tables_definition =
  QCheck2.Test.make ~name:"partition tables = definition" ~count:200
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 12))
    (fun (seed, n) ->
      let tr = random_steps_traversal (Gf_util.Rng.create seed) n in
      let fieldsets = Partitioner.step_fieldsets tr in
      List.for_all
        (fun first ->
          List.for_all
            (fun last ->
              let expected =
                if Partitioner.coherent fieldsets ~first ~last then (last - first + 1, 0)
                else (0, Mask.bits (Traversal.segment_wildcard tr ~first ~last))
              in
              Partitioner.evaluate tr [ { Partitioner.first; last } ] = expected)
            (List.init (n - first) (fun k -> first + k)))
        (List.init n Fun.id))

let test_partition_rejects_empty () =
  let tr = random_steps_traversal (Gf_util.Rng.create 5) 3 in
  Alcotest.check_raises "empty traversal"
    (Invalid_argument "Partitioner.partition: empty traversal") (fun () ->
      ignore
        (Partitioner.partition Partitioner.Disjoint ~max_segments:2
           { tr with Traversal.steps = [||] }))

let test_one_to_one_shape () =
  let rng = Gf_util.Rng.create 31 in
  let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
  match run_traversal rng p with
  | None -> ()
  | Some tr ->
      let n = Traversal.length tr in
      let segments = Partitioner.partition Partitioner.One_to_one ~max_segments:8 tr in
      Alcotest.(check int) "one per step (n <= k)" (min n 8) (List.length segments);
      List.iteri
        (fun i s ->
          if i < List.length segments - 1 then
            Alcotest.(check int) "unit segment" 1 (Partitioner.segment_length s))
        segments

(* ----------------------------- Rulegen ----------------------------- *)

let test_rulegen_structure () =
  let rng = Gf_util.Rng.create 32 in
  let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
  match run_traversal rng p with
  | None -> Alcotest.fail "no traversal"
  | Some tr ->
      let segments = Partitioner.partition Partitioner.Disjoint ~max_segments:4 tr in
      let rules = Rulegen.rules_of_partition ~version:7 tr segments in
      Alcotest.(check int) "one rule per segment" (List.length segments)
        (List.length rules);
      List.iteri
        (fun i rule ->
          let seg = List.nth segments i in
          Alcotest.(check int) "tag is first table"
            tr.Traversal.steps.(seg.Partitioner.first).Traversal.table_id
            rule.Ltm_rule.tag_in;
          Alcotest.(check int) "priority = length" (Partitioner.segment_length seg)
            rule.Ltm_rule.priority;
          Alcotest.(check int) "version recorded" 7 rule.Ltm_rule.origin.Ltm_rule.version;
          match rule.Ltm_rule.next with
          | Ltm_rule.Done terminal ->
              Alcotest.(check bool) "only last is Done" true
                (i = List.length rules - 1);
              Alcotest.check terminal_testable "terminal preserved"
                tr.Traversal.terminal terminal
          | Ltm_rule.Next_tag tag ->
              Alcotest.(check int) "tag chains to next segment"
                tr.Traversal.steps.(seg.Partitioner.last + 1).Traversal.table_id tag)
        rules

let test_rulegen_rejects_bad_partition () =
  let rng = Gf_util.Rng.create 33 in
  let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
  match run_traversal rng p with
  | None -> ()
  | Some tr ->
      Alcotest.check_raises "gap rejected"
        (Invalid_argument "Rulegen: segments not contiguous") (fun () ->
          ignore
            (Rulegen.rules_of_partition ~version:0 tr
               [ { Partitioner.first = 1; last = Traversal.length tr - 1 } ]))

(* ---------------------------- Ltm_table ---------------------------- *)

let mk_rule ?(tag_in = 0) ?(priority = 1) ?(commit = []) ~next fm =
  {
    Ltm_rule.tag_in;
    fmatch = fm;
    priority;
    commit;
    next;
    origin = { Ltm_rule.parent_flow = Flow.zero; length = priority; version = 0 };
  }

(* Rules differing only in an ip_dst/24 pattern must spread over the
   signature index: a hash that stops early files them all in one chain,
   and every dedup probe walks it. *)
let test_ltm_signature_hash_spreads () =
  let tbl = Ltm_rule.Signature_tbl.create 64 in
  for i = 0 to 2047 do
    let fm =
      Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:((10 lsl 24) lor (i lsl 8)) ~len:24
    in
    let rule = mk_rule ~next:(Ltm_rule.Done Action.Drop) fm in
    Ltm_rule.Signature_tbl.replace tbl (Ltm_rule.signature rule) i
  done;
  let stats = Ltm_rule.Signature_tbl.stats tbl in
  Alcotest.(check int) "2048 signatures" 2048 (Ltm_rule.Signature_tbl.length tbl);
  Alcotest.(check bool)
    (Printf.sprintf "longest chain %d" stats.Hashtbl.max_bucket_length)
    true
    (stats.Hashtbl.max_bucket_length <= 8);
  (* Every field but [origin] takes part in the identity. *)
  let base =
    mk_rule ~next:(Ltm_rule.Done Action.Drop)
      (Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(10 lsl 24) ~len:24)
  in
  let mem r = Ltm_rule.Signature_tbl.mem tbl (Ltm_rule.signature r) in
  Alcotest.(check bool) "origin ignored" true
    (mem { base with origin = { base.Ltm_rule.origin with Ltm_rule.version = 9 } });
  List.iter
    (fun (what, r) -> Alcotest.(check bool) what false (mem r))
    [
      ("tag", { base with Ltm_rule.tag_in = 1 });
      ("priority", { base with Ltm_rule.priority = 2 });
      ("commit", { base with Ltm_rule.commit = [ (Field.Vlan, 1) ] });
      ("next", { base with Ltm_rule.next = Ltm_rule.Next_tag 3 });
    ]

let test_ltm_table_tag_gating () =
  let t = Ltm_table.create ~capacity:8 in
  let fm = Fmatch.of_fields [ (Field.Vlan, 1) ] in
  ignore (Ltm_table.insert t ~now:0.0 (mk_rule ~tag_in:3 ~next:(Ltm_rule.Done Action.Drop) fm));
  let flow = Flow.make [ (Field.Vlan, 1) ] in
  Alcotest.(check bool) "matching tag hits" true
    (fst (Ltm_table.lookup t ~tag:3 flow) <> None);
  Alcotest.(check bool) "wrong tag misses" true
    (fst (Ltm_table.lookup t ~tag:4 flow) = None)

let test_ltm_table_longest_traversal_match () =
  (* Two rules with the same tag match; the longer sub-traversal (higher
     rho) must win — the LTM criterion of section 4.1.1. *)
  let t = Ltm_table.create ~capacity:8 in
  let fm_short = Fmatch.of_fields [ (Field.Vlan, 1) ] in
  let fm_long = Fmatch.of_fields [ (Field.Vlan, 1); (Field.Ip_dst, 0xA) ] in
  ignore
    (Ltm_table.insert t ~now:0.0
       (mk_rule ~priority:2 ~next:(Ltm_rule.Next_tag 9) fm_short));
  ignore
    (Ltm_table.insert t ~now:0.0
       (mk_rule ~priority:4 ~next:(Ltm_rule.Next_tag 11) fm_long));
  let flow = Flow.make [ (Field.Vlan, 1); (Field.Ip_dst, 0xA) ] in
  match fst (Ltm_table.lookup t ~tag:0 flow) with
  | Some stored ->
      Alcotest.(check int) "longest wins" 4 stored.Ltm_table.rule.Ltm_rule.priority
  | None -> Alcotest.fail "expected hit"

let test_ltm_table_dedup () =
  let t = Ltm_table.create ~capacity:8 in
  let fm = Fmatch.of_fields [ (Field.Vlan, 2) ] in
  let rule = mk_rule ~next:(Ltm_rule.Done (Action.Output 1)) fm in
  ignore (Ltm_table.insert t ~now:0.0 rule);
  Alcotest.(check bool) "identical found" true (Ltm_table.find_identical t rule <> None);
  let different = mk_rule ~next:(Ltm_rule.Done (Action.Output 2)) fm in
  Alcotest.(check bool) "different action not found" true
    (Ltm_table.find_identical t different = None)

let test_ltm_table_capacity () =
  let t = Ltm_table.create ~capacity:1 in
  ignore
    (Ltm_table.insert t ~now:0.0
       (mk_rule ~next:(Ltm_rule.Done Action.Drop) (Fmatch.of_fields [ (Field.Vlan, 1) ])));
  Alcotest.(check bool) "full" true (Ltm_table.is_full t);
  Alcotest.check_raises "insert into full" (Invalid_argument "Ltm_table.insert: table full")
    (fun () ->
      ignore
        (Ltm_table.insert t ~now:0.0
           (mk_rule ~next:(Ltm_rule.Done Action.Drop)
              (Fmatch.of_fields [ (Field.Vlan, 9) ]))))

(* ---------------------- Ltm_cache install/walk ---------------------- *)

let test_ltm_cache_fig5c_walk () =
  (* Reconstruct the spirit of the paper's Fig. 5c: a rule in GF1 whose tag
     update skips GF2 and continues at GF3. *)
  let cache = Ltm_cache.create (Config.v ~tables:3 ~table_capacity:8 ()) in
  let seg1 =
    mk_rule ~tag_in:1 ~priority:4 ~next:(Ltm_rule.Next_tag 9)
      (Fmatch.of_fields [ (Field.Eth_dst, 0xAA) ])
  in
  let seg2 =
    mk_rule ~tag_in:9 ~priority:1 ~next:(Ltm_rule.Done (Action.Output 7))
      (Fmatch.of_fields [ (Field.Tp_src, 80) ])
  in
  (match Ltm_cache.install cache ~now:0.0 [ seg1; seg2 ] with
  | Install.Installed { fresh = 2; shared = 0; _ } -> ()
  | _ -> Alcotest.fail "install failed");
  let flow = Flow.make [ (Field.Eth_dst, 0xAA); (Field.Tp_src, 80) ] in
  match fst (Ltm_cache.lookup cache ~now:1.0 ~entry_tag:1 flow) with
  | Some hit ->
      Alcotest.check terminal_testable "terminal" (Action.Output 7) hit.Hit.terminal;
      Alcotest.(check int) "two tables matched" 2 (Ltm_cache.last_depth cache)
  | None -> Alcotest.fail "expected hit"

let test_ltm_cache_incomplete_walk_misses () =
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  let seg1 =
    mk_rule ~tag_in:1 ~priority:1 ~next:(Ltm_rule.Next_tag 5)
      (Fmatch.of_fields [ (Field.Vlan, 1) ])
  in
  (match Ltm_cache.install cache ~now:0.0 [ seg1 ] with
  | Install.Installed _ -> ()
  | Install.Rejected _ -> Alcotest.fail "rejected");
  (* Matching seg1 but nothing provides tag 5 -> overall miss. *)
  Alcotest.(check bool) "dangling tag = miss" true
    (fst (Ltm_cache.lookup cache ~now:0.0 ~entry_tag:1 (Flow.make [ (Field.Vlan, 1) ]))
    = None)

let test_ltm_cache_sharing () =
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  let seg_shared =
    mk_rule ~tag_in:0 ~priority:2 ~next:(Ltm_rule.Next_tag 4)
      (Fmatch.of_fields [ (Field.Eth_src, 0x1) ])
  in
  let seg_a =
    mk_rule ~tag_in:4 ~priority:1 ~next:(Ltm_rule.Done (Action.Output 1))
      (Fmatch.of_fields [ (Field.Tp_dst, 80) ])
  in
  let seg_b =
    mk_rule ~tag_in:4 ~priority:1 ~next:(Ltm_rule.Done (Action.Output 2))
      (Fmatch.of_fields [ (Field.Tp_dst, 443) ])
  in
  (match Ltm_cache.install cache ~now:0.0 [ seg_shared; seg_a ] with
  | Install.Installed { fresh = 2; _ } -> ()
  | _ -> Alcotest.fail "first install");
  (match Ltm_cache.install cache ~now:1.0 [ seg_shared; seg_b ] with
  | Install.Installed { fresh = 1; shared = 1; _ } -> ()
  | _ -> Alcotest.fail "expected sharing");
  Alcotest.(check int) "3 entries for 4 segments" 3 (Ltm_cache.occupancy cache);
  let hist = Ltm_cache.sharing_histogram cache in
  Alcotest.(check bool) "one entry shared twice" true (List.mem (2, 1) hist);
  Alcotest.(check (float 1e-9)) "mean sharing" (4.0 /. 3.0) (Ltm_cache.mean_sharing cache)

let test_ltm_cache_all_or_nothing () =
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:1 ()) in
  let fm i = Fmatch.of_fields [ (Field.Vlan, i) ] in
  (* Fill both tables. *)
  (match
     Ltm_cache.install cache ~now:0.0
       [
         mk_rule ~tag_in:0 ~next:(Ltm_rule.Next_tag 1) (fm 1);
         mk_rule ~tag_in:1 ~next:(Ltm_rule.Done Action.Drop) (fm 2);
       ]
   with
  | Install.Installed _ -> ()
  | Install.Rejected _ -> Alcotest.fail "fill failed");
  let occ = Ltm_cache.occupancy cache in
  (match
     Ltm_cache.install cache ~now:1.0
       [
         mk_rule ~tag_in:0 ~next:(Ltm_rule.Next_tag 1) (fm 3);
         mk_rule ~tag_in:1 ~next:(Ltm_rule.Done Action.Drop) (fm 4);
       ]
   with
  | Install.Rejected _ -> ()
  | Install.Installed _ -> Alcotest.fail "expected rejection");
  Alcotest.(check int) "nothing partially installed" occ (Ltm_cache.occupancy cache)

let test_ltm_cache_expire () =
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  ignore
    (Ltm_cache.install cache ~now:0.0
       [ mk_rule ~tag_in:0 ~next:(Ltm_rule.Done Action.Drop) (Fmatch.of_fields [ (Field.Vlan, 1) ]) ]);
  ignore
    (Ltm_cache.install cache ~now:5.0
       [ mk_rule ~tag_in:0 ~next:(Ltm_rule.Done Action.Drop) (Fmatch.of_fields [ (Field.Vlan, 2) ]) ]);
  Alcotest.(check int) "one stale" 1 (Ltm_cache.expire cache ~now:11.0 ~max_idle:10.0);
  Alcotest.(check int) "one left" 1 (Ltm_cache.occupancy cache)

(* ------------------- Ltm_cache pressure eviction ------------------- *)

let test_ltm_cache_pressure_eviction () =
  (* Single-segment entries, 2 tables x capacity 1, LRU: once full, every
     install evicts exactly one stale entry and occupancy stays pinned. *)
  let cache =
    Ltm_cache.create
      (Config.v ~tables:2 ~table_capacity:1 ~policy:Gf_cache.Evict.Lru ())
  in
  let fm i = Fmatch.of_fields [ (Field.Vlan, i) ] in
  let pressure = ref 0 in
  for i = 1 to 20 do
    match
      Ltm_cache.install cache ~now:(float_of_int i)
        [ mk_rule ~tag_in:0 ~next:(Ltm_rule.Done Action.Drop) (fm i) ]
    with
    | Install.Installed { pressure_evicted; _ } -> pressure := !pressure + pressure_evicted
    | Install.Rejected _ -> Alcotest.fail "LRU policy rejected an install"
  done;
  Alcotest.(check int) "occupancy pinned at capacity" 2 (Ltm_cache.occupancy cache);
  Alcotest.(check int) "one eviction per over-capacity install" 18 !pressure;
  Alcotest.(check int) "no stranded entries" 0
    (Ltm_cache.stranded cache ~entry_tags:[ 0 ])

let test_ltm_cache_eviction_respects_tag_chains () =
  (* A referenced chain prefix must never be evicted: with table 0 holding
     only the prefix of a live chain, a 2-segment install cannot free a
     slot there and is rejected rather than stranding the continuation. *)
  let cache =
    Ltm_cache.create
      (Config.v ~tables:2 ~table_capacity:1 ~policy:Gf_cache.Evict.Lru ())
  in
  let fm i = Fmatch.of_fields [ (Field.Vlan, i) ] in
  (match
     Ltm_cache.install cache ~now:0.0
       [
         mk_rule ~tag_in:0 ~next:(Ltm_rule.Next_tag 7) (fm 1);
         mk_rule ~tag_in:7 ~next:(Ltm_rule.Done Action.Drop) (fm 2);
       ]
   with
  | Install.Installed _ -> ()
  | Install.Rejected _ -> Alcotest.fail "fill failed");
  (match
     Ltm_cache.install cache ~now:1.0
       [
         mk_rule ~tag_in:0 ~next:(Ltm_rule.Next_tag 8) (fm 3);
         mk_rule ~tag_in:8 ~next:(Ltm_rule.Done Action.Drop) (fm 4);
       ]
   with
  | Install.Rejected _ -> ()
  | Install.Installed _ -> Alcotest.fail "evicting the prefix strands the chain");
  Alcotest.(check int) "chain intact" 0 (Ltm_cache.stranded cache ~entry_tags:[ 0 ]);
  (* A single-segment install can take the leaf's slot (the leaf is safe:
     nothing depends on it), after which the walk still never strands —
     the old prefix simply dead-ends into the slowpath. *)
  (match
     Ltm_cache.install cache ~now:2.0
       [ mk_rule ~tag_in:0 ~next:(Ltm_rule.Done Action.Drop) (fm 5) ]
   with
  | Install.Installed { pressure_evicted; _ } ->
      Alcotest.(check int) "evicted the leaf only" 1 pressure_evicted
  | Install.Rejected _ -> Alcotest.fail "leaf slot should be reclaimable");
  Alcotest.(check int) "occupancy still capped" 2 (Ltm_cache.occupancy cache);
  Alcotest.(check int) "reachability preserved" 0
    (Ltm_cache.stranded cache ~entry_tags:[ 0 ])

let test_ltm_cache_priority_aware_evicts_short () =
  (* Priority encodes sub-traversal length: the short (least coverage)
     entry goes first even when it is the more recently completed one. *)
  let cache =
    Ltm_cache.create
      (Config.v ~tables:2 ~table_capacity:1 ~policy:Gf_cache.Evict.Priority_aware ())
  in
  let fm i = Fmatch.of_fields [ (Field.Vlan, i) ] in
  ignore
    (Ltm_cache.install cache ~now:0.0
       [ mk_rule ~tag_in:0 ~priority:5 ~next:(Ltm_rule.Done (Action.Output 1)) (fm 1) ]);
  ignore
    (Ltm_cache.install cache ~now:1.0
       [ mk_rule ~tag_in:0 ~priority:1 ~next:(Ltm_rule.Done (Action.Output 2)) (fm 2) ]);
  (match
     Ltm_cache.install cache ~now:2.0
       [ mk_rule ~tag_in:0 ~priority:3 ~next:(Ltm_rule.Done (Action.Output 3)) (fm 3) ]
   with
  | Install.Installed { pressure_evicted = 1; _ } -> ()
  | _ -> Alcotest.fail "expected one pressure eviction");
  match
    fst
      (Ltm_cache.lookup cache ~now:3.0 ~entry_tag:0 (Flow.make [ (Field.Vlan, 1) ]))
  with
  | Some hit ->
      Alcotest.check terminal_testable "long traversal survived" (Action.Output 1)
        hit.Hit.terminal
  | None -> Alcotest.fail "high-priority entry was evicted"

let test_ltm_cache_reject_counters_unchanged () =
  (* The default policy must reproduce the historical counts exactly:
     rejects returned, no pressure evictions, occupancy frozen. *)
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:1 ()) in
  let fm i = Fmatch.of_fields [ (Field.Vlan, i) ] in
  let rejected = ref 0 and pressure = ref 0 in
  for i = 1 to 10 do
    match
      Ltm_cache.install cache ~now:(float_of_int i)
        [ mk_rule ~tag_in:0 ~next:(Ltm_rule.Done Action.Drop) (fm i) ]
    with
    | Install.Installed { pressure_evicted; _ } ->
        pressure := !pressure + pressure_evicted
    | Install.Rejected _ -> incr rejected
  done;
  Alcotest.(check int) "two landed" 2 (Ltm_cache.occupancy cache);
  Alcotest.(check int) "eight rejected" 8 !rejected;
  Alcotest.(check int) "zero pressure evictions" 0 !pressure

(* Under random single/multi-segment install churn with an evicting policy,
   occupancy never exceeds capacity and no entry is ever stranded. *)
let prop_ltm_no_stranding_under_churn =
  QCheck2.Test.make ~name:"ltm eviction never strands entries" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let policy =
        Gf_util.Rng.pick rng
          [| Gf_cache.Evict.Lru; Gf_cache.Evict.Random; Gf_cache.Evict.Priority_aware |]
      in
      let cache =
        Ltm_cache.create (Config.v ~tables:3 ~table_capacity:4 ~policy ())
      in
      let total = 3 * 4 in
      let ok = ref true in
      for i = 1 to 200 do
        let now = float_of_int i in
        let vlan () = Gf_util.Rng.int rng 64 in
        let segs =
          if Gf_util.Rng.bool rng then
            [
              mk_rule ~tag_in:0 ~priority:2
                ~next:(Ltm_rule.Next_tag 7)
                (Fmatch.of_fields [ (Field.Vlan, vlan ()) ]);
              mk_rule ~tag_in:7 ~priority:1
                ~next:(Ltm_rule.Done Action.Drop)
                (Fmatch.of_fields [ (Field.Vlan, vlan ()) ]);
            ]
          else
            [
              mk_rule ~tag_in:0 ~priority:1
                ~next:(Ltm_rule.Done Action.Drop)
                (Fmatch.of_fields [ (Field.Vlan, vlan ()) ]);
            ]
        in
        ignore (Ltm_cache.install cache ~now segs);
        ignore
          (Ltm_cache.lookup cache ~now ~entry_tag:0
             (Flow.make [ (Field.Vlan, vlan ()) ]));
        if
          Ltm_cache.occupancy cache > total
          || Ltm_cache.stranded cache ~entry_tags:[ 0 ] > 0
        then ok := false
      done;
      !ok)

(* Reference for [Ltm_cache.pick_victim]: the selection as it stood before
   the single pass — a last-consumer table over every entry, the list of
   safe candidates in the full tables of [lo..hi], then a uniform draw
   ([Random]) or a fold with tuple compares ([Lru] / [Priority_aware]). *)
let ref_pick_victim ~policy ~rng cache ~lo ~hi =
  let cap = (Ltm_cache.config cache).Config.table_capacity in
  let occ = Ltm_cache.table_occupancies cache in
  let last_consumer = Hashtbl.create 16 in
  Ltm_cache.iter_rules cache (fun ~table s ->
      Hashtbl.replace last_consumer s.Ltm_table.rule.Ltm_rule.tag_in table);
  let safe p (s : Ltm_table.stored) =
    match s.Ltm_table.rule.Ltm_rule.next with
    | Ltm_rule.Done _ -> true
    | Ltm_rule.Next_tag tag -> (
        match Hashtbl.find_opt last_consumer tag with None -> true | Some q -> q <= p)
  in
  let acc = ref [] in
  Ltm_cache.iter_rules cache (fun ~table:p s ->
      if p >= lo && p <= hi && occ.(p) >= cap && safe p s then acc := (p, s) :: !acc);
  let candidates = !acc in
  match (policy, candidates) with
  | Gf_cache.Evict.Reject, _ | _, [] -> None
  | Gf_cache.Evict.Random, _ ->
      Some (List.nth candidates (Gf_util.Rng.int rng (List.length candidates)))
  | (Gf_cache.Evict.Lru | Gf_cache.Evict.Priority_aware), _ ->
      let better (p, (s : Ltm_table.stored)) (p', (s' : Ltm_table.stored)) =
        let lru () =
          s.Ltm_table.clock.last_hit < s'.Ltm_table.clock.last_hit
          || (s.Ltm_table.clock.last_hit = s'.Ltm_table.clock.last_hit
             && (p, s.Ltm_table.key) < (p', s'.Ltm_table.key))
        in
        match policy with
        | Gf_cache.Evict.Priority_aware ->
            let pr = s.Ltm_table.rule.Ltm_rule.priority
            and pr' = s'.Ltm_table.rule.Ltm_rule.priority in
            pr < pr' || (pr = pr' && lru ())
        | _ -> lru ()
      in
      List.fold_left
        (fun best c -> match best with Some b when not (better c b) -> best | _ -> Some c)
        None candidates

(* Random LTM states — k in {2, 3, 4}, capacities 1..5, chains of
   [Next_tag]s over a small tag pool, priority and recency ties — probed
   over every feasible range [lo..hi] under all four policies.  The states
   are built under [Reject] and [Lru] installs only, so the cache's
   [Random] draws come from [pick_victim] alone and stay in step with the
   reference's identically seeded generator. *)
let prop_ltm_victim_matches_reference =
  QCheck2.Test.make ~name:"ltm victim = list-based reference" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let k = 2 + Gf_util.Rng.int rng 3 and cap = 1 + Gf_util.Rng.int rng 5 in
      let cache =
        Ltm_cache.create ~rng_seed:seed (Config.v ~tables:k ~table_capacity:cap ())
      in
      let ref_rng = Gf_util.Rng.create seed in
      let tag () = Gf_util.Rng.int rng 4 in
      let fm () = Fmatch.of_fields [ (Field.Vlan, Gf_util.Rng.int rng 6) ] in
      let chain () =
        let m = 1 + Gf_util.Rng.int rng k in
        let rec go i tag_in =
          let priority = 1 + Gf_util.Rng.int rng 3 in
          if i = m - 1 then [ mk_rule ~tag_in ~priority ~next:(Ltm_rule.Done Action.Drop) (fm ()) ]
          else
            let next = tag () in
            mk_rule ~tag_in ~priority ~next:(Ltm_rule.Next_tag next) (fm ()) :: go (i + 1) next
        in
        go 0 (tag ())
      in
      let ok = ref true and picked = ref 0 in
      for round = 1 to 40 do
        (* Whole-second clock, several installs per tick: recency ties. *)
        let now = float_of_int (round / 3) in
        Ltm_cache.set_policy cache
          (if Gf_util.Rng.bool rng then Gf_cache.Evict.Reject else Gf_cache.Evict.Lru);
        ignore (Ltm_cache.install cache ~now (chain ()));
        for _ = 1 to 3 do
          ignore
            (Ltm_cache.lookup cache ~now ~entry_tag:(tag ())
               (Flow.make [ (Field.Vlan, Gf_util.Rng.int rng 6) ]))
        done;
        List.iter
          (fun policy ->
            Ltm_cache.set_policy cache policy;
            for lo = 0 to k - 1 do
              for hi = lo to k - 1 do
                let got = Ltm_cache.pick_victim cache ~lo ~hi in
                let want = ref_pick_victim ~policy ~rng:ref_rng cache ~lo ~hi in
                match (got, want) with
                | None, None -> ()
                | Some (p, s), Some (p', s') when p = p' && s == s' -> incr picked
                | _ -> ok := false
              done
            done)
          Gf_cache.Evict.all
      done;
      !ok && !picked > 0)

(* Every entry an install writes or evicts is counted by its outcome:
   across random chained-tag installs ([Lru] replans evict one victim per
   round, and a replan can still fail after evicting) and idle expiry,
   occupancy = fresh installs - pressure evictions - expirations.  The
   pressure evictions of a rejected install count too. *)
let prop_ltm_install_outcomes_account_every_entry =
  QCheck2.Test.make ~name:"ltm install outcomes account every entry" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let k = 2 + Gf_util.Rng.int rng 3 and cap = 1 + Gf_util.Rng.int rng 5 in
      let cache =
        Ltm_cache.create ~rng_seed:seed
          (Config.v ~tables:k ~table_capacity:cap ~policy:Gf_cache.Evict.Lru ())
      in
      let tag () = Gf_util.Rng.int rng 4 in
      let fm () = Fmatch.of_fields [ (Field.Vlan, Gf_util.Rng.int rng 6) ] in
      let chain () =
        let m = 1 + Gf_util.Rng.int rng k in
        let rec go i tag_in =
          let priority = 1 + Gf_util.Rng.int rng 3 in
          if i = m - 1 then [ mk_rule ~tag_in ~priority ~next:(Ltm_rule.Done Action.Drop) (fm ()) ]
          else
            let next = tag () in
            mk_rule ~tag_in ~priority ~next:(Ltm_rule.Next_tag next) (fm ()) :: go (i + 1) next
        in
        go 0 (tag ())
      in
      let written = ref 0 and ok = ref true in
      for round = 1 to 40 do
        let now = float_of_int round in
        (match Ltm_cache.install cache ~now (chain ()) with
        | Install.Installed { fresh; pressure_evicted; _ } ->
            written := !written + fresh - pressure_evicted
        | Install.Rejected { pressure_evicted } -> written := !written - pressure_evicted);
        if round mod 10 = 0 then
          written := !written - Ltm_cache.expire cache ~now ~max_idle:6.0;
        if Ltm_cache.occupancy cache <> !written then ok := false
      done;
      !ok)

(* ----------------------- Ltm_cache replays ----------------------- *)

(* The (table, key) of every entry whose [last_used], and of every entry
   whose [last_hit], reads [now]: what a walk at a fresh time stamped. *)
let stamped cache ~now =
  let used = ref [] and hit = ref [] in
  Ltm_cache.iter_rules cache (fun ~table s ->
      let id = (table, s.Ltm_table.key) in
      if s.Ltm_table.clock.last_used = now then used := id :: !used;
      if s.Ltm_table.clock.last_hit = now then hit := id :: !hit);
  (List.sort compare !used, List.sort compare !hit)

let same_hit a b =
  Option.equal
    (fun (a : Hit.t) (b : Hit.t) ->
      Action.terminal_equal a.terminal b.terminal && Flow.equal a.out_flow b.out_flow)
    a b

(* Whether a replay run at [now] did exactly what a fresh [lookup] does
   next, at [now']: same hit, work, depth and stamped entries. *)
let replay_agrees cache ~entry_tag flow (hit, replay) ~now ~now' =
  let work = replay ~now in
  work >= 0
  &&
  let depth = Ltm_cache.last_depth cache and stamps = stamped cache ~now in
  let hit', work' = Ltm_cache.lookup cache ~now:now' ~entry_tag flow in
  same_hit hit hit' && work = work'
  && depth = Ltm_cache.last_depth cache
  && stamps = stamped cache ~now:now'

let replay_of cache ~now ~entry_tag flow =
  let hit, _, replay = Ltm_cache.lookup_replay cache ~now ~entry_tag flow in
  (hit, replay)

let vlan v = Fmatch.of_fields [ (Field.Vlan, v) ]

(* A hit held across inserts into the tag its walk probed: a lower-priority
   match or a non-matching entry leaves it valid, with the work recounted
   over the new tuple; a higher-priority match stales it for good. *)
let test_ltm_replay_beaten_by_insert () =
  let cache = Ltm_cache.create (Config.v ~tables:1 ~table_capacity:8 ()) in
  let install now rule = ignore (Ltm_cache.install cache ~now [ rule ]) in
  install 0.0 (mk_rule ~priority:2 ~next:(Ltm_rule.Done (Action.Output 1)) (vlan 1));
  let flow = Flow.make [ (Field.Vlan, 1); (Field.In_port, 3) ] in
  let held = replay_of cache ~now:1.0 ~entry_tag:0 flow in
  install 2.0
    (mk_rule ~priority:1 ~next:(Ltm_rule.Done (Action.Output 2))
       (Fmatch.of_fields [ (Field.Vlan, 1); (Field.In_port, 3) ]));
  install 3.0 (mk_rule ~priority:3 ~next:(Ltm_rule.Done (Action.Output 3)) (vlan 2));
  Alcotest.(check bool) "lower and non-matching inserts: still the fresh walk" true
    (replay_agrees cache ~entry_tag:0 flow held ~now:4.0 ~now':5.0);
  install 6.0
    (mk_rule ~priority:3 ~next:(Ltm_rule.Done (Action.Output 4))
       (Fmatch.of_fields [ (Field.In_port, 3) ]));
  Alcotest.(check int) "a better match stales it" (-1) ((snd held) ~now:7.0);
  install 8.0 (mk_rule ~priority:1 ~next:(Ltm_rule.Done Action.Drop) (vlan 3));
  Alcotest.(check int) "and it stays stale" (-1) ((snd held) ~now:9.0)

(* A walk that found no classifier for its tag counts every insert into
   the one that appears later. *)
let test_ltm_replay_classifier_appears () =
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  let head = mk_rule ~tag_in:0 ~priority:2 ~next:(Ltm_rule.Next_tag 7) (vlan 1) in
  ignore (Ltm_cache.install cache ~now:0.0 [ head ]);
  let flow = Flow.make [ (Field.Vlan, 1) ] and other = Flow.make [ (Field.Vlan, 2) ] in
  let held = replay_of cache ~now:1.0 ~entry_tag:0 flow in
  Alcotest.(check int) "a stalled prefix" 1 (Ltm_cache.last_depth cache);
  let held_other = replay_of cache ~now:1.0 ~entry_tag:7 other in
  (* [head] is reused in table 0; the tail creates table 1's tag-7 classifier. *)
  (match
     Ltm_cache.install cache ~now:2.0
       [ head; mk_rule ~tag_in:7 ~priority:1 ~next:(Ltm_rule.Done Action.Drop) (vlan 1) ]
   with
  | Install.Installed { fresh = 1; shared = 1; _ } -> ()
  | _ -> Alcotest.fail "expected the tail in table 1");
  Alcotest.(check int) "the new classifier matches: stale" (-1) ((snd held) ~now:3.0);
  Alcotest.(check bool) "a miss it does not match still holds" true
    (replay_agrees cache ~entry_tag:7 other held_other ~now:4.0 ~now':5.0)

(* Each tag's classifier logs its last 256 inserts: a replay 256 inserts
   behind re-checks them, one 257 behind is stale. *)
let test_ltm_replay_gap_beyond_log () =
  let cache = Ltm_cache.create (Config.v ~tables:1 ~table_capacity:1024 ()) in
  ignore
    (Ltm_cache.install cache ~now:0.0
       [ mk_rule ~priority:2 ~next:(Ltm_rule.Done Action.Drop) (vlan 1) ]);
  let flow = Flow.make [ (Field.Vlan, 1) ] in
  let held = replay_of cache ~now:1.0 ~entry_tag:0 flow in
  let port = ref 0 in
  let unrelated n =
    for _ = 1 to n do
      incr port;
      ignore
        (Ltm_cache.install cache ~now:2.0
           [
             mk_rule ~priority:1 ~next:(Ltm_rule.Done Action.Drop)
               (Fmatch.of_fields [ (Field.Vlan, 2); (Field.In_port, !port) ]);
           ])
    done
  in
  unrelated 256;
  Alcotest.(check bool) "256 behind: re-checked" true
    (replay_agrees cache ~entry_tag:0 flow held ~now:3.0 ~now':4.0);
  unrelated 257;
  Alcotest.(check int) "257 behind: stale" (-1) ((snd held) ~now:5.0);
  Alcotest.(check bool) "a fresh walk still hits" true
    (fst (Ltm_cache.lookup cache ~now:6.0 ~entry_tag:0 flow) <> None)

(* A chained hit re-checked after an install into another tag, or into its
   own tag's tuple with a value it does not match, allocates nothing. *)
let test_ltm_replay_revalidation_allocation_free () =
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  ignore
    (Ltm_cache.install cache ~now:0.0
       [
         mk_rule ~tag_in:0 ~priority:2 ~next:(Ltm_rule.Next_tag 5) (vlan 1);
         mk_rule ~tag_in:5 ~priority:1 ~next:(Ltm_rule.Done Action.Drop) (vlan 1);
       ]);
  let flow = Flow.make [ (Field.Vlan, 1) ] in
  let _, replay = replay_of cache ~now:1.0 ~entry_tag:0 flow in
  List.iter
    (fun (what, rule) ->
      (match Ltm_cache.install cache ~now:2.0 [ rule ] with
      | Install.Installed { fresh = 1; _ } -> ()
      | _ -> Alcotest.fail "unrelated install");
      let work = ref (-1) in
      let words = minor_words (fun () -> work := replay ~now:3.0) in
      Alcotest.(check bool) (what ^ ": still valid") true (!work > 0);
      Alcotest.(check (float 0.)) (what ^ ": minor words") 0. words)
    [
      ("other tag", mk_rule ~tag_in:3 ~next:(Ltm_rule.Done Action.Drop) (vlan 1));
      ("same tuple", mk_rule ~tag_in:0 ~next:(Ltm_rule.Done Action.Drop) (vlan 2));
    ]

(* Random LTM churn — chained installs over a small tag pool, matches of
   three shapes with overlapping priorities, rewrites that change what a
   later table sees, LRU pressure evictions, idle expiry and bursts long
   enough to outrun a tag's insert log — while each of eight flows holds
   its last [lookup_replay] across all of it.  Every replay that answers
   must do exactly what a fresh [lookup] of the same state does.  Returns
   whether they all agreed, with the replays that held across a change
   and the replays that went stale. *)
let ltm_replay_trial seed =
  let rng = Gf_util.Rng.create seed in
  let k = 2 + Gf_util.Rng.int rng 3 and cap = 2 + Gf_util.Rng.int rng 6 in
  let cache =
    Ltm_cache.create ~rng_seed:seed
      (Config.v ~tables:k ~table_capacity:cap ~policy:Gf_cache.Evict.Lru ())
  in
  let tag () = Gf_util.Rng.int rng 3 in
  let fm () =
    match Gf_util.Rng.int rng 4 with
    | 0 -> Fmatch.of_fields [ (Field.In_port, Gf_util.Rng.int rng 2) ]
    | 1 | 2 -> vlan (Gf_util.Rng.int rng 4)
    | _ ->
        Fmatch.of_fields
          [ (Field.Vlan, Gf_util.Rng.int rng 4); (Field.In_port, Gf_util.Rng.int rng 2) ]
  in
  let commit () =
    if Gf_util.Rng.int rng 4 = 0 then [ (Field.Vlan, Gf_util.Rng.int rng 4) ] else []
  in
  let chain () =
    let m = 1 + Gf_util.Rng.int rng k in
    let rec go i tag_in =
      let priority = 1 + Gf_util.Rng.int rng 3 and commit = commit () in
      if i = m - 1 then
        [ mk_rule ~tag_in ~priority ~commit ~next:(Ltm_rule.Done (Action.Output i)) (fm ()) ]
      else
        let next = tag () in
        mk_rule ~tag_in ~priority ~commit ~next:(Ltm_rule.Next_tag next) (fm ())
        :: go (i + 1) next
    in
    go 0 (tag ())
  in
  let flows =
    Array.init 8 (fun i -> Flow.make [ (Field.Vlan, i mod 4); (Field.In_port, i / 4) ])
  in
  let entry_tags = Array.init 8 (fun _ -> tag ()) in
  let held = Array.make 8 None in
  let clock = ref 0.0 and changes = ref 0 in
  let tick () =
    clock := !clock +. 1.0;
    !clock
  in
  let install () =
    match Ltm_cache.install cache ~now:(tick ()) (chain ()) with
    | Install.Installed { fresh = 0; pressure_evicted = 0; _ }
    | Install.Rejected { pressure_evicted = 0 } ->
        ()
    | Install.Installed _ | Install.Rejected _ -> incr changes
  in
  let ok = ref true and held_across = ref 0 and stale = ref 0 in
  for _ = 1 to 120 do
    match Gf_util.Rng.int rng 20 with
    | n when n < 6 -> install ()
    | 6 ->
        for _ = 1 to 300 do
          install ()
        done
    | 7 | 8 ->
        if Ltm_cache.expire cache ~now:(tick ()) ~max_idle:(float_of_int (4 + Gf_util.Rng.int rng 20)) > 0
        then incr changes
    | _ -> (
        let i = Gf_util.Rng.int rng 8 in
        let entry_tag = entry_tags.(i) and flow = flows.(i) in
        let now = tick () in
        match held.(i) with
        | Some (h, since) ->
            if (snd h) ~now >= 0 then begin
              if !changes > since then incr held_across;
              held.(i) <- Some (h, !changes);
              if not (replay_agrees cache ~entry_tag flow h ~now:(tick ()) ~now':(tick ())) then
                ok := false
            end
            else begin
              incr stale;
              held.(i) <- None
            end
        | None -> held.(i) <- Some (replay_of cache ~now ~entry_tag flow, !changes))
  done;
  (!ok, !held_across, !stale)

let prop_ltm_replay_matches_fresh_lookup =
  QCheck2.Test.make ~name:"ltm replay = fresh lookup under churn" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let ok, _, _ = ltm_replay_trial seed in
      ok)

(* The property reaches both outcomes of a re-check. *)
let test_ltm_replay_trial_covers_both_outcomes () =
  let held_across = ref 0 and stale = ref 0 in
  for seed = 1 to 20 do
    let ok, h, s = ltm_replay_trial seed in
    if not ok then Alcotest.failf "seed %d: a replay disagreed with a fresh lookup" seed;
    held_across := !held_across + h;
    stale := !stale + s
  done;
  Alcotest.(check bool) (Printf.sprintf "held across changes (%d)" !held_across) true (!held_across > 0);
  Alcotest.(check bool) (Printf.sprintf "went stale (%d)" !stale) true (!stale > 0)

(* --------------- End-to-end consistency (the big one) --------------- *)

let gigaflow_consistency ?(unwildcard = `Minimal) ~scheme seed =
  let rng = Gf_util.Rng.create seed in
  let p = random_pipeline rng ~tables:5 ~rules_per_table:10 in
  Pipeline.set_unwildcard p unwildcard;
  let gf =
    Gigaflow.create ~rng_seed:seed
      (Config.v ~tables:4 ~table_capacity:512 ~scheme ())
  in
  let ok = ref true in
  for _ = 1 to 250 do
    let flow = pool_flow rng in
    match Gigaflow.lookup gf ~now:0.0 ~pipeline:p flow with
    | Some hit, _ -> (
        (* A hit (possibly a cross-product of segments from different
           parents) must equal the slowpath decision exactly. *)
        match Executor.terminal_of p flow with
        | Ok (terminal, out_flow) ->
            if
              (not (Action.terminal_equal hit.Hit.terminal terminal))
              || not (Flow.equal hit.Hit.out_flow out_flow)
            then ok := false
        | Error _ -> ok := false)
    | None, _ -> (
        match Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p flow with
        | Ok _ -> ()
        | Error _ -> ())
  done;
  !ok

let prop_gigaflow_consistent_dp =
  QCheck2.Test.make ~name:"gigaflow hit = slowpath decision (DP)" ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (gigaflow_consistency ~scheme:Partitioner.Disjoint)

let prop_gigaflow_consistent_rnd =
  QCheck2.Test.make ~name:"gigaflow hit = slowpath decision (RND)" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (gigaflow_consistency ~scheme:Partitioner.Random)

let prop_gigaflow_consistent_1to1 =
  QCheck2.Test.make ~name:"gigaflow hit = slowpath decision (1-1)" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (gigaflow_consistency ~scheme:Partitioner.One_to_one)

(* Perturbed probes: flows near installed parents stress LTM selection and
   the dependency bits harder than fresh pool flows. *)
let prop_gigaflow_consistent_perturbed =
  QCheck2.Test.make ~name:"gigaflow consistency under perturbed flows" ~count:20
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:5 ~rules_per_table:10 in
      let gf = Gigaflow.create ~rng_seed:seed (Config.v ~tables:4 ~table_capacity:512 ()) in
      let parents = ref [] in
      for _ = 1 to 60 do
        let flow = pool_flow rng in
        parents := flow :: !parents;
        ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p flow)
      done;
      let ok = ref true in
      List.iter
        (fun parent ->
          for _ = 1 to 4 do
            (* Mutate one field to a nearby pool value. *)
            let f = Gf_util.Rng.pick rng Field.all in
            let probe = Flow.set parent f (pool_value rng f) in
            match Gigaflow.lookup gf ~now:0.0 ~pipeline:p probe with
            | Some hit, _ -> (
                match Executor.terminal_of p probe with
                | Ok (terminal, out_flow) ->
                    if
                      (not (Action.terminal_equal hit.Hit.terminal terminal))
                      || not (Flow.equal hit.Hit.out_flow out_flow)
                    then ok := false
                | Error _ -> ok := false)
            | None, _ -> ()
          done)
        !parents;
      !ok)

(* ----------------------------- Coverage ----------------------------- *)

let prop_coverage_matches_brute_force =
  QCheck2.Test.make ~name:"coverage DP = brute-force chain count" ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let p = random_pipeline rng ~tables:4 ~rules_per_table:6 in
      let gf = Gigaflow.create ~rng_seed:seed (Config.v ~tables:3 ~table_capacity:64 ()) in
      for _ = 1 to 30 do
        ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p (pool_flow rng))
      done;
      let cache = Gigaflow.cache gf in
      let entry_tag = Pipeline.entry p in
      let dp = Coverage.count cache ~entry_tag in
      let bf = Coverage.brute_force cache ~entry_tag in
      Float.abs (dp -. float_of_int bf) < 0.5)

let test_coverage_cross_product () =
  (* 2 alternatives in table 0 x 3 alternatives in table 1 = 6 chains. *)
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  for i = 1 to 2 do
    ignore
      (Ltm_cache.install cache ~now:0.0
         [
           mk_rule ~tag_in:0 ~next:(Ltm_rule.Next_tag 5) (Fmatch.of_fields [ (Field.Eth_src, i) ]);
           mk_rule ~tag_in:5
             ~next:(Ltm_rule.Done (Action.Output i))
             (Fmatch.of_fields [ (Field.Tp_dst, i) ]);
         ])
  done;
  ignore
    (Ltm_cache.install cache ~now:0.0
       [
         mk_rule ~tag_in:0 ~next:(Ltm_rule.Next_tag 5) (Fmatch.of_fields [ (Field.Eth_src, 1) ]);
         mk_rule ~tag_in:5
           ~next:(Ltm_rule.Done (Action.Output 3))
           (Fmatch.of_fields [ (Field.Tp_dst, 3) ]);
       ]);
  (* 2 x 3 = 6 *)
  Alcotest.(check (float 1e-9)) "cross product" 6.0
    (Coverage.count cache ~entry_tag:0)

(* --------------------------- Revalidation --------------------------- *)

let test_gigaflow_revalidation () =
  let rng = Gf_util.Rng.create 44 in
  let p = random_pipeline rng ~tables:4 ~rules_per_table:8 in
  let gf = Gigaflow.create (Config.v ~tables:3 ~table_capacity:512 ()) in
  for _ = 1 to 80 do
    ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p (pool_flow rng))
  done;
  let evicted, work = Gigaflow.revalidate gf p in
  Alcotest.(check int) "consistent cache untouched" 0 evicted;
  Alcotest.(check bool) "did work" true (work > 0);
  (* Shadow everything in the entry table. *)
  Pipeline.add_rule p ~table:0
    (Gf_pipeline.Ofrule.v ~id:(Pipeline.fresh_rule_id p) ~priority:1_000_000
       ~fmatch:Fmatch.any ~action:(Action.drop ()));
  let evicted, _ = Gigaflow.revalidate gf p in
  Alcotest.(check bool) "entry-table segments evicted" true (evicted > 0);
  (* After revalidation, hits must be consistent again. *)
  let ok = ref true in
  for _ = 1 to 200 do
    let flow = pool_flow rng in
    match Gigaflow.lookup gf ~now:0.0 ~pipeline:p flow with
    | Some hit, _ -> (
        match Executor.terminal_of p flow with
        | Ok (terminal, _) ->
            if not (Action.terminal_equal hit.Hit.terminal terminal) then
              ok := false
        | Error _ -> ok := false)
    | None, _ -> ()
  done;
  Alcotest.(check bool) "post-revalidation hits consistent" true !ok

(* Gigaflow revalidation work is bounded by sub-traversal lengths, so it is
   cheaper than Megaflow's full-traversal revalidation on the same flows
   (the paper's 2x claim, section 6.3.6). *)
let test_revalidation_cheaper_than_megaflow () =
  let rng = Gf_util.Rng.create 45 in
  let p = random_pipeline rng ~tables:6 ~rules_per_table:8 in
  let gf = Gigaflow.create (Config.v ~tables:4 ~table_capacity:4096 ()) in
  let mf = Gf_cache.Megaflow.create ~capacity:4096 () in
  for _ = 1 to 300 do
    let flow = pool_flow rng in
    ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p flow);
    match Executor.execute p flow with
    | Ok tr -> ignore (Gf_cache.Megaflow.install mf ~now:0.0 ~version:0 tr)
    | Error _ -> ()
  done;
  let _, gf_work = Gigaflow.revalidate gf p in
  let _, mf_work = Gf_cache.Megaflow.revalidate mf p in
  (* Per-entry cost: sub-traversals are strictly shorter on average. *)
  let gf_entries = Ltm_cache.occupancy (Gigaflow.cache gf) in
  let mf_entries = Gf_cache.Megaflow.occupancy mf in
  let gf_per = float_of_int gf_work /. float_of_int (max 1 gf_entries) in
  let mf_per = float_of_int mf_work /. float_of_int (max 1 mf_entries) in
  Alcotest.(check bool)
    (Printf.sprintf "per-entry revalidation cheaper (%.2f < %.2f)" gf_per mf_per)
    true (gf_per < mf_per)

let test_ltm_placement_ordering () =
  (* A segment may only reuse an identical entry in a table strictly after
     the previous segment's table; otherwise a fresh copy must be placed
     later. *)
  let cache = Ltm_cache.create (Config.v ~tables:3 ~table_capacity:8 ()) in
  let seg_x =
    mk_rule ~tag_in:5 ~priority:1 ~next:(Ltm_rule.Done (Action.Output 1))
      (Fmatch.of_fields [ (Field.Tp_dst, 80) ])
  in
  (* First install: single segment lands in table 0. *)
  (match Ltm_cache.install cache ~now:0.0 [ seg_x ] with
  | Install.Installed { fresh = 1; shared = 0; _ } -> ()
  | _ -> Alcotest.fail "first install");
  Alcotest.(check (array int)) "lands in table 0" [| 1; 0; 0 |]
    (Ltm_cache.table_occupancies cache);
  (* Now a 2-segment chain whose SECOND segment is identical to seg_x: the
     copy in table 0 is unusable (segment 1 occupies position 0), so a
     fresh copy must go to table 1 or later. *)
  let seg_a =
    mk_rule ~tag_in:0 ~priority:1 ~next:(Ltm_rule.Next_tag 5)
      (Fmatch.of_fields [ (Field.Eth_src, 0x7) ])
  in
  (match Ltm_cache.install cache ~now:1.0 [ seg_a; seg_x ] with
  | Install.Installed { fresh; shared; _ } ->
      Alcotest.(check int) "two fresh entries" 2 fresh;
      Alcotest.(check int) "no (illegal) reuse" 0 shared
  | Install.Rejected _ -> Alcotest.fail "install rejected");
  (* seg_a reused table 0? No — table 0 had the old seg_x; placement is
     first-fit: seg_a goes to table 0 (not full), seg_x copy to table 1. *)
  Alcotest.(check (array int)) "chain spread over tables" [| 2; 1; 0 |]
    (Ltm_cache.table_occupancies cache);
  (* A third chain identical to the second now shares both entries. *)
  match Ltm_cache.install cache ~now:2.0 [ seg_a; seg_x ] with
  | Install.Installed { fresh = 0; shared = 2; _ } -> ()
  | _ -> Alcotest.fail "expected full sharing"

(* ----------------------- Eviction mid-chain ------------------------- *)

let test_ltm_eviction_breaks_chain_safely () =
  (* Evicting one segment of a chain must turn dependent flows into misses,
     never into wrong answers. *)
  let cache = Ltm_cache.create (Config.v ~tables:2 ~table_capacity:8 ()) in
  let seg1 =
    mk_rule ~tag_in:0 ~priority:1 ~next:(Ltm_rule.Next_tag 3)
      (Gf_flow.Fmatch.of_fields [ (Field.Eth_src, 0x11) ])
  in
  let seg2 =
    mk_rule ~tag_in:3 ~priority:1 ~next:(Ltm_rule.Done (Action.Output 2))
      (Gf_flow.Fmatch.of_fields [ (Field.Tp_dst, 80) ])
  in
  (match Ltm_cache.install cache ~now:0.0 [ seg1; seg2 ] with
  | Install.Installed _ -> ()
  | Install.Rejected _ -> Alcotest.fail "install");
  let flow = Flow.make [ (Field.Eth_src, 0x11); (Field.Tp_dst, 80) ] in
  Alcotest.(check bool) "hit before eviction" true
    (fst (Ltm_cache.lookup cache ~now:1.0 ~entry_tag:0 flow) <> None);
  (* Age only the second segment: touch the first, then expire. *)
  Ltm_cache.iter_rules cache (fun ~table:_ stored ->
      if stored.Ltm_table.rule.Ltm_rule.tag_in = 0 then
        stored.Ltm_table.clock.last_used <- 100.0);
  Alcotest.(check int) "one evicted" 1 (Ltm_cache.expire cache ~now:100.0 ~max_idle:10.0);
  Alcotest.(check bool) "dangling chain is a miss, not a wrong answer" true
    (fst (Ltm_cache.lookup cache ~now:101.0 ~entry_tag:0 flow) = None)

let test_partitioner_respects_budget () =
  let rng = Gf_util.Rng.create 95 in
  let p = random_pipeline rng ~tables:6 ~rules_per_table:8 in
  match run_traversal rng p with
  | None -> ()
  | Some tr ->
      List.iter
        (fun k ->
          let segs = Partitioner.partition Partitioner.Disjoint ~max_segments:k tr in
          Alcotest.(check bool)
            (Printf.sprintf "budget %d respected" k)
            true
            (List.length segs <= k);
          if k = 1 then
            Alcotest.(check int) "K=1 is one whole segment" 1 (List.length segs))
        [ 1; 2; 3 ]

(* ------------------------- Adaptive fallback ------------------------ *)

let test_adaptive_fallback_engages () =
  (* A pipeline whose traversals never share sub-traversals: every flow
     matches a unique exact rule in each table.  The profile monitor must
     flip to whole-traversal (single-segment) installs. *)
  let mk_table id next =
    let t =
      Gf_pipeline.Oftable.create ~id ~name:(Printf.sprintf "t%d" id)
        ~match_fields:(Field.Set.of_list [ Field.Ip_src; Field.Tp_src ])
        ~miss:(Action.drop ())
    in
    ignore next;
    t
  in
  let t0 = mk_table 0 1 and t1 = mk_table 1 (-1) in
  let p = Pipeline.create ~name:"nosharing" ~entry:0 [ t0; t1 ] in
  let rng = Gf_util.Rng.create 91 in
  (* Unique exact rules per flow, installed on demand via the slowpath:
     emulate by pre-installing per-flow chains. *)
  let flows =
    Array.init 3000 (fun i ->
        Flow.make [ (Field.Ip_src, 0x0A000000 + i); (Field.Tp_src, i land 0xFFFF) ])
  in
  Array.iter
    (fun flow ->
      let fm0 = Gf_flow.Fmatch.of_fields [ (Field.Ip_src, Flow.get flow Field.Ip_src) ] in
      let fm1 = Gf_flow.Fmatch.of_fields [ (Field.Tp_src, Flow.get flow Field.Tp_src) ] in
      (try
         Pipeline.add_rule p ~table:0
           (Gf_pipeline.Ofrule.v ~id:(Pipeline.fresh_rule_id p) ~priority:1 ~fmatch:fm0
              ~action:(Action.goto 1))
       with Invalid_argument _ -> ());
      try
        Pipeline.add_rule p ~table:1
          (Gf_pipeline.Ofrule.v ~id:(Pipeline.fresh_rule_id p) ~priority:1 ~fmatch:fm1
             ~action:(Action.output 1))
      with Invalid_argument _ -> ())
    flows;
  ignore rng;
  let gf =
    Gigaflow.create
      (Config.v ~tables:2 ~table_capacity:65536 ~adaptive:true ~adaptive_threshold:0.15 ())
  in
  Array.iter (fun flow -> ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p flow)) flows;
  Alcotest.(check bool) "fallback engaged under zero sharing" true
    (Gigaflow.in_fallback gf)

let test_adaptive_stays_off_with_sharing () =
  let rng = Gf_util.Rng.create 92 in
  let p = random_pipeline rng ~tables:4 ~rules_per_table:6 in
  let gf =
    Gigaflow.create (Config.v ~tables:3 ~table_capacity:4096 ~adaptive:true ())
  in
  (* Pool flows share components heavily; sharing stays above threshold. *)
  for _ = 1 to 3000 do
    ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p (pool_flow rng))
  done;
  Alcotest.(check bool) "no fallback when sharing is plentiful" false
    (Gigaflow.in_fallback gf)

let test_adaptive_consistency () =
  (* Hits must stay slowpath-consistent in fallback mode too. *)
  let rng = Gf_util.Rng.create 93 in
  let p = random_pipeline rng ~tables:4 ~rules_per_table:10 in
  let gf =
    Gigaflow.create
      (Config.v ~tables:3 ~table_capacity:1024 ~adaptive:true ~adaptive_threshold:0.99 ())
  in
  (* Threshold ~1 forces fallback after the first window. *)
  let ok = ref true in
  for _ = 1 to 3000 do
    let flow = pool_flow rng in
    match Gigaflow.lookup gf ~now:0.0 ~pipeline:p flow with
    | Some hit, _ -> (
        match Executor.terminal_of p flow with
        | Ok (terminal, out_flow) ->
            if
              (not (Action.terminal_equal hit.Hit.terminal terminal))
              || not (Flow.equal hit.Hit.out_flow out_flow)
            then ok := false
        | Error _ -> ok := false)
    | None, _ -> ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline:p flow)
  done;
  Alcotest.(check bool) "consistent under adaptive fallback" true !ok

(* ----------------------- Unwildcarding ablation --------------------- *)

let test_full_unwildcarding_still_sound () =
  Alcotest.(check bool) "gigaflow consistent under full unwildcarding" true
    (gigaflow_consistency ~unwildcard:`Full ~scheme:Partitioner.Disjoint 4242)

let megaflow_bits p flow =
  match Executor.execute p flow with
  | Ok tr -> Mask.bits (Traversal.megaflow_wildcard tr)
  | Error _ -> 0

let test_full_unwildcarding_fatter () =
  let rng = Gf_util.Rng.create 94 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:12 in
  let flow = pool_flow rng in
  let full = Pipeline.copy p in
  Pipeline.set_unwildcard full `Full;
  Alcotest.(check bool) "full union consults at least as many bits" true
    (megaflow_bits full flow >= megaflow_bits p flow)

(* The mode is a per-table setting, not a process-wide one: a minimal and a
   full pipeline, each on its own domain, return the wildcards each gives
   alone, and copies keep their original's mode. *)
let test_unwildcard_per_pipeline () =
  let rng = Gf_util.Rng.create 95 in
  let minimal = random_pipeline rng ~tables:4 ~rules_per_table:12 in
  let flows = Array.init 400 (fun _ -> pool_flow rng) in
  let full = Pipeline.copy minimal in
  Pipeline.set_unwildcard full `Full;
  let wildcards p =
    Array.map
      (fun flow ->
        match Executor.execute p flow with
        | Ok tr -> Some (Traversal.megaflow_wildcard tr)
        | Error _ -> None)
      flows
  in
  let alone_minimal = wildcards (Pipeline.copy minimal) in
  let alone_full = wildcards (Pipeline.copy full) in
  Alcotest.(check bool) "modes differ on these flows" true (alone_minimal <> alone_full);
  let on_domain p = Domain.spawn (fun () -> wildcards p) in
  let dm = on_domain minimal and df = on_domain full in
  let side_minimal = Domain.join dm and side_full = Domain.join df in
  Alcotest.(check bool) "minimal pipeline unaffected by the full one" true
    (side_minimal = alone_minimal);
  Alcotest.(check bool) "full pipeline unaffected by the minimal one" true
    (side_full = alone_full)

(* ------------------------------ Config ------------------------------ *)

let test_config () =
  Alcotest.(check int) "default total" 32768 (Config.total_capacity Config.default);
  Alcotest.(check bool) "default valid" true (Config.validate Config.default = Ok ());
  Alcotest.(check bool) "zero tables invalid" true
    (Result.is_error (Config.validate (Config.v ~tables:0 ())));
  Alcotest.(check bool) "bad idle invalid" true
    (Result.is_error (Config.validate (Config.v ~max_idle:0.0 ())))

let suite =
  [
    ("coherence", `Quick, test_coherent);
    ("one-to-one shape", `Quick, test_one_to_one_shape);
    ("partition rejects empty", `Quick, test_partition_rejects_empty);
    ("rulegen structure", `Quick, test_rulegen_structure);
    ("rulegen rejects bad partitions", `Quick, test_rulegen_rejects_bad_partition);
    ("ltm table tag gating", `Quick, test_ltm_table_tag_gating);
    ("ltm longest traversal match", `Quick, test_ltm_table_longest_traversal_match);
    ("ltm table dedup", `Quick, test_ltm_table_dedup);
    ("ltm signature hash spreads", `Quick, test_ltm_signature_hash_spreads);
    ("ltm table capacity", `Quick, test_ltm_table_capacity);
    ("ltm walk with tag skip (fig 5c)", `Quick, test_ltm_cache_fig5c_walk);
    ("ltm dangling tag misses", `Quick, test_ltm_cache_incomplete_walk_misses);
    ("ltm sub-traversal sharing", `Quick, test_ltm_cache_sharing);
    ("ltm all-or-nothing install", `Quick, test_ltm_cache_all_or_nothing);
    ("ltm expire", `Quick, test_ltm_cache_expire);
    ("ltm pressure eviction", `Quick, test_ltm_cache_pressure_eviction);
    ("ltm eviction respects tag chains", `Quick, test_ltm_cache_eviction_respects_tag_chains);
    ("ltm priority-aware victim choice", `Quick, test_ltm_cache_priority_aware_evicts_short);
    ("ltm reject counters unchanged", `Quick, test_ltm_cache_reject_counters_unchanged);
    ("ltm replay beaten by an insert", `Quick, test_ltm_replay_beaten_by_insert);
    ("ltm replay: classifier appears later", `Quick, test_ltm_replay_classifier_appears);
    ("ltm replay: gap beyond the insert log", `Quick, test_ltm_replay_gap_beyond_log);
    ("ltm replay re-check allocation-free", `Quick, test_ltm_replay_revalidation_allocation_free);
    ("ltm replay trial covers both outcomes", `Quick, test_ltm_replay_trial_covers_both_outcomes);
    ("coverage cross product", `Quick, test_coverage_cross_product);
    ("gigaflow revalidation", `Quick, test_gigaflow_revalidation);
    ("revalidation cheaper than megaflow", `Quick, test_revalidation_cheaper_than_megaflow);
    ("ltm placement ordering", `Quick, test_ltm_placement_ordering);
    ("ltm eviction breaks chains safely", `Quick, test_ltm_eviction_breaks_chain_safely);
    ("partitioner respects budget", `Quick, test_partitioner_respects_budget);
    ("adaptive fallback engages", `Quick, test_adaptive_fallback_engages);
    ("adaptive stays off with sharing", `Quick, test_adaptive_stays_off_with_sharing);
    ("adaptive hits stay consistent", `Quick, test_adaptive_consistency);
    ("full unwildcarding still sound", `Quick, test_full_unwildcarding_still_sound);
    ("full unwildcarding is fatter", `Quick, test_full_unwildcarding_fatter);
    ("unwildcard mode per pipeline", `Quick, test_unwildcard_per_pipeline);
    ("config", `Quick, test_config);
  ]

let props =
  [
    prop_partition_valid;
    prop_partition_optimal;
    prop_partition_tables_definition;
    prop_gigaflow_consistent_dp;
    prop_gigaflow_consistent_rnd;
    prop_gigaflow_consistent_1to1;
    prop_gigaflow_consistent_perturbed;
    prop_coverage_matches_brute_force;
    prop_ltm_no_stranding_under_churn;
    prop_ltm_victim_matches_reference;
    prop_ltm_install_outcomes_account_every_entry;
    prop_ltm_replay_matches_fresh_lookup;
  ]
