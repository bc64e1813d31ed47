(* Tests for gigaflow.pipeline: Action, Ofrule, Oftable (including minimal
   dependency unwildcarding), Pipeline, Executor, Traversal, Builder. *)

open Helpers
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Action = Gf_pipeline.Action
module Ofrule = Gf_pipeline.Ofrule
module Oftable = Gf_pipeline.Oftable
module Pipeline = Gf_pipeline.Pipeline
module Executor = Gf_pipeline.Executor
module Traversal = Gf_pipeline.Traversal
module Builder = Gf_pipeline.Builder
module Headers = Gf_flow.Headers

let test_action_apply_sets () =
  let a = Action.goto ~set_fields:[ (Field.Vlan, 9); (Field.Tp_dst, 80) ] 3 in
  let f = Action.apply_sets a Flow.zero in
  Alcotest.(check int) "vlan" 9 (Flow.get f Field.Vlan);
  Alcotest.(check int) "port" 80 (Flow.get f Field.Tp_dst)

let test_action_equal () =
  Alcotest.(check bool) "same" true (Action.equal (Action.drop ()) (Action.drop ()));
  Alcotest.(check bool) "different" false
    (Action.equal (Action.output 1) (Action.output 2));
  Alcotest.(check bool) "goto vs terminal" false
    (Action.equal (Action.goto 1) (Action.output 1))

let test_ofrule_same_behaviour () =
  let fm = Fmatch.of_fields [ (Field.Vlan, 1) ] in
  let a = Ofrule.v ~id:1 ~priority:5 ~fmatch:fm ~action:(Action.drop ()) in
  let b = Ofrule.v ~id:2 ~priority:5 ~fmatch:fm ~action:(Action.drop ()) in
  Alcotest.(check bool) "behaviour equal" true (Ofrule.same_behaviour a b);
  Alcotest.(check bool) "not structurally equal" false (Ofrule.equal a b)

let mk_table ?(miss = Action.drop ()) rules =
  let t =
    Oftable.create ~id:0 ~name:"t"
      ~match_fields:(Field.Set.of_list (Array.to_list Field.all))
      ~miss
  in
  List.iter (Oftable.add_rule t) rules;
  t

let test_oftable_priority_selection () =
  let fm_broad = Fmatch.of_fields [ (Field.Vlan, 1) ] in
  let fm_narrow = Fmatch.of_fields [ (Field.Vlan, 1); (Field.Tp_dst, 80) ] in
  let t =
    mk_table
      [
        Ofrule.v ~id:1 ~priority:1 ~fmatch:fm_broad ~action:(Action.output 1);
        Ofrule.v ~id:2 ~priority:10 ~fmatch:fm_narrow ~action:(Action.output 2);
      ]
  in
  let flow = Flow.make [ (Field.Vlan, 1); (Field.Tp_dst, 80) ] in
  (match (Oftable.lookup t flow).Oftable.outcome with
  | `Hit r -> Alcotest.(check int) "narrow wins" 2 r.Ofrule.id
  | `Miss -> Alcotest.fail "expected hit");
  let flow2 = Flow.make [ (Field.Vlan, 1); (Field.Tp_dst, 81) ] in
  match (Oftable.lookup t flow2).Oftable.outcome with
  | `Hit r -> Alcotest.(check int) "broad catches rest" 1 r.Ofrule.id
  | `Miss -> Alcotest.fail "expected hit"

(* Copies share the source's built tuple index: a rule added to one copy
   must rebuild that copy alone, and the source and a sibling copy keep
   answering from the old index, consulted wildcard and probes included. *)
let test_oftable_copy_isolated () =
  let t =
    mk_table
      [
        Ofrule.v ~id:1 ~priority:1 ~fmatch:(Fmatch.of_fields [ (Field.Vlan, 1) ])
          ~action:(Action.output 1);
        Ofrule.v ~id:2 ~priority:5
          ~fmatch:(Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:0x0A000000 ~len:8)
          ~action:(Action.output 2);
      ]
  in
  let flows =
    [
      Flow.make [ (Field.Vlan, 1); (Field.Tp_dst, 80) ];
      Flow.make [ (Field.Vlan, 1); (Field.Ip_dst, 0x0A010203); (Field.Tp_dst, 80) ];
      Flow.make [ (Field.Vlan, 2); (Field.Tp_dst, 80) ];
    ]
  in
  let answer table flow =
    let r = Oftable.lookup table flow in
    ( (match r.Oftable.outcome with `Hit r -> r.Ofrule.id | `Miss -> -1),
      Mask.to_string r.Oftable.consulted,
      r.Oftable.probes )
  in
  let before = List.map (answer t) flows in
  let changed = Oftable.copy t in
  let sibling = Oftable.copy t in
  Oftable.add_rule changed
    (Ofrule.v ~id:3 ~priority:9
       ~fmatch:(Fmatch.of_fields [ (Field.Tp_dst, 80) ])
       ~action:(Action.output 3));
  let answers table = List.map (answer table) flows in
  let same = Alcotest.(list (triple int string int)) in
  Alcotest.check same "source unchanged" before (answers t);
  Alcotest.check same "sibling unchanged" before (answers sibling);
  Alcotest.(check (list int)) "changed copy sees its rule" [ 3; 3; 3 ]
    (List.map (fun (id, _, _) -> id) (answers changed));
  Alcotest.(check bool) "source remove is private" true (Oftable.remove_rule t 2);
  Alcotest.check same "sibling unchanged after source remove" before (answers sibling);
  (* Force the sibling's own rebuild: it must see its rules alone. *)
  Oftable.add_rule sibling
    (Ofrule.v ~id:4 ~priority:0 ~fmatch:Fmatch.any ~action:(Action.output 4));
  Alcotest.(check bool) "sibling remove" true (Oftable.remove_rule sibling 4);
  Alcotest.check same "sibling rebuilt from its own rules" before (answers sibling)

let test_oftable_tie_break_lowest_id () =
  let fm = Fmatch.of_fields [ (Field.Vlan, 1) ] in
  let fm2 = Fmatch.of_fields [ (Field.Vlan, 1); (Field.In_port, 0) ] in
  let t =
    mk_table
      [
        Ofrule.v ~id:5 ~priority:3 ~fmatch:fm ~action:(Action.output 1);
        Ofrule.v ~id:2 ~priority:3 ~fmatch:fm2 ~action:(Action.output 2);
      ]
  in
  let flow = Flow.make [ (Field.Vlan, 1) ] in
  match (Oftable.lookup t flow).Oftable.outcome with
  | `Hit r -> Alcotest.(check int) "lowest id wins tie" 2 r.Ofrule.id
  | `Miss -> Alcotest.fail "expected hit"

let test_oftable_remove () =
  let fm = Fmatch.of_fields [ (Field.Vlan, 1) ] in
  let t = mk_table [ Ofrule.v ~id:1 ~priority:1 ~fmatch:fm ~action:(Action.drop ()) ] in
  Alcotest.(check bool) "removed" true (Oftable.remove_rule t 1);
  Alcotest.(check bool) "absent" false (Oftable.remove_rule t 1);
  match (Oftable.lookup t (Flow.make [ (Field.Vlan, 1) ])).Oftable.outcome with
  | `Miss -> ()
  | `Hit _ -> Alcotest.fail "rule not removed"

(* The paper's section 4.2.3 example: rules at /32, /24, /16, /8 with
   descending priorities; a flow matching the /16 must get a wildcard that
   excludes the /32 and /24 rules with prefix-extension bits. *)
let test_minimal_unwildcarding_paper_example () =
  let mk id priority len ip =
    Ofrule.v ~id ~priority
      ~fmatch:(Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(Headers.ipv4 ip) ~len)
      ~action:(Action.output id)
  in
  let t =
    mk_table
      [
        mk 1 400 32 "192.168.14.15";
        mk 2 300 24 "192.168.14.0";
        mk 3 200 16 "192.168.0.0";
        mk 4 100 8 "192.0.0.0";
      ]
  in
  let flow = Flow.make [ (Field.Ip_dst, Headers.ipv4 "192.168.21.27") ] in
  let result = Oftable.lookup t flow in
  (match result.Oftable.outcome with
  | `Hit r -> Alcotest.(check int) "matches /16 rule" 3 r.Ofrule.id
  | `Miss -> Alcotest.fail "expected hit");
  let m = Mask.get result.Oftable.consulted Field.Ip_dst in
  (* The paper derives 255.255.240.0 (/20): enough bits to exclude the /24
     (and a fortiori the /32), no more. *)
  Alcotest.(check int) "paper's /20 wildcard" (Headers.ipv4 "255.255.240.0") m

(* Soundness of the consulted wildcard: any flow agreeing with the original
   on the consulted bits must select the same rule (or miss alike). *)
let prop_unwildcard_sound =
  QCheck2.Test.make ~name:"consulted wildcard preserves the winner" ~count:120
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let rules =
        List.init 60 (fun id -> pool_rule rng ~id ~action:(Action.output id))
      in
      let t = mk_table rules in
      let ok = ref true in
      for _ = 1 to 40 do
        let flow = pool_flow rng in
        let r1 = Oftable.lookup t flow in
        for _ = 1 to 5 do
          let probe = agreeing_flow rng r1.Oftable.consulted flow in
          let r2 = Oftable.lookup t probe in
          let same =
            match (r1.Oftable.outcome, r2.Oftable.outcome) with
            | `Hit a, `Hit b -> a.Ofrule.id = b.Ofrule.id
            | `Miss, `Miss -> true
            | `Hit _, `Miss | `Miss, `Hit _ -> false
          in
          if not same then ok := false
        done
      done;
      !ok)

(* Reference for the compiled unwildcarding pass: [Oftable.lookup] as it
   stood with list-based exclusion (a [List.assoc_opt] per field-key
   lookup, a [List.filter] over the refinement order), rebuilt here from
   the table's public rule list. *)
module Ref_unwildcard = struct
  type tuple = {
    mask : Mask.t;
    max_priority : int;
    rules : Ofrule.t list; (* best-first *)
    field_keys : (int * int array) list;
  }

  let better (a : Ofrule.t) (b : Ofrule.t) =
    a.priority > b.priority || (a.priority = b.priority && a.id < b.id)

  let tuples table =
    let by_mask = Mask.Tbl.create 16 in
    List.iter
      (fun (r : Ofrule.t) ->
        let mask = Fmatch.mask r.fmatch in
        let rs = Option.value ~default:[] (Mask.Tbl.find_opt by_mask mask) in
        Mask.Tbl.replace by_mask mask (r :: rs))
      (List.rev (Oftable.rules table));
    Mask.Tbl.fold
      (fun mask rules acc ->
        let field_keys =
          List.filter_map
            (fun f ->
              if Mask.get mask f = 0 then None
              else
                Some
                  ( Field.index f,
                    Array.of_list
                      (List.sort_uniq compare
                         (List.map (fun (r : Ofrule.t) -> Flow.get (Fmatch.pattern r.fmatch) f) rules))
                  ))
            (Array.to_list Field.all)
        in
        let max_priority = List.fold_left (fun m (r : Ofrule.t) -> max m r.priority) min_int rules in
        { mask; max_priority; rules; field_keys } :: acc)
      by_mask []
    |> List.sort (fun a b ->
           let c = compare b.max_priority a.max_priority in
           if c <> 0 then c else Mask.compare a.mask b.mask)

  let leading_prefix_len ~width m =
    let rec go i =
      if i >= width then width else if m land (1 lsl (width - 1 - i)) = 0 then i else go (i + 1)
    in
    go 0

  let prefix_shaped ~width m = m = Gf_util.Bitops.prefix_mask ~width (leading_prefix_len ~width m)

  let field_has_key_in tu fi ~fmask ~lo ~hi =
    match List.assoc_opt fi tu.field_keys with
    | None | Some [||] -> false
    | Some keys ->
        let klo = lo land fmask in
        let n = Array.length keys in
        let l = ref 0 and r = ref n in
        while !l < !r do
          let mid = (!l + !r) / 2 in
          if keys.(mid) >= klo then r := mid else l := mid + 1
        done;
        !l < n && keys.(!l) <= hi

  let region_interval ~flow ~w f =
    let width = Field.width f in
    let plen = leading_prefix_len ~width (Mask.get w f) in
    let pmask = Gf_util.Bitops.prefix_mask ~width plen in
    let base = Flow.get flow f land pmask in
    (base, base lor (Field.full_mask f land lnot pmask), plen)

  let refinement_order =
    Field.[ Ip_dst; Ip_src; Tp_dst; Tp_src; Eth_dst; Eth_src; Vlan; In_port; Eth_type; Ip_proto ]

  let exclude_tuple ~flow w tu =
    let fields = List.filter (fun f -> Mask.get tu.mask f <> 0) refinement_order in
    let overlaps f =
      let width = Field.width f in
      let fmask = Mask.get tu.mask f in
      (not (prefix_shaped ~width fmask))
      ||
      let lo, hi, _ = region_interval ~flow ~w f in
      field_has_key_in tu (Field.index f) ~fmask ~lo ~hi
    in
    if List.exists (fun f -> not (overlaps f)) fields then w
    else begin
      let try_field f =
        let width = Field.width f in
        let fmask = Mask.get tu.mask f in
        if not (prefix_shaped ~width fmask) then None
        else begin
          let tuple_plen = leading_prefix_len ~width fmask in
          let _, _, plen0 = region_interval ~flow ~w f in
          let rec extend plen =
            if plen > tuple_plen then None
            else begin
              let pmask = Gf_util.Bitops.prefix_mask ~width plen in
              let base = Flow.get flow f land pmask in
              let hi = base lor (Field.full_mask f land lnot pmask) in
              if field_has_key_in tu (Field.index f) ~fmask ~lo:base ~hi then extend (plen + 1)
              else Some plen
            end
          in
          match extend (plen0 + 1) with
          | Some plen ->
              Some (Mask.set w f (Mask.get w f lor Gf_util.Bitops.prefix_mask ~width plen))
          | None -> None
        end
      in
      let rec first_resolving = function
        | [] -> Mask.union w tu.mask
        | f :: rest -> ( match try_field f with Some w' -> w' | None -> first_resolving rest)
      in
      first_resolving fields
    end

  (* (winner id, consulted, probes) *)
  let lookup ~mode tuples flow =
    let rec go tuples best probed probes =
      match tuples with
      | [] -> (best, probed, probes)
      | tu :: rest -> (
          match best with
          | Some (r : Ofrule.t) when r.priority > tu.max_priority -> (best, probed, probes)
          | _ ->
              let candidate =
                List.find_opt (fun (r : Ofrule.t) -> Fmatch.matches r.fmatch flow) tu.rules
              in
              let best =
                match (best, candidate) with
                | None, c -> c
                | b, None -> b
                | Some b, Some c -> if better c b then candidate else best
              in
              go rest best (tu :: probed) (probes + 1))
    in
    let best, probed, probes = go tuples None [] 0 in
    let consulted =
      match (mode, best) with
      | `Full, _ -> List.fold_left (fun w tu -> Mask.union w tu.mask) Mask.empty probed
      | `Minimal, Some r ->
          let win_mask = Fmatch.mask r.fmatch in
          List.fold_left
            (fun w tu ->
              if Mask.equal tu.mask win_mask then w
              else if tu.max_priority >= r.priority then exclude_tuple ~flow w tu
              else w)
            win_mask probed
      | `Minimal, None -> List.fold_left (fun w tu -> exclude_tuple ~flow w tu) Mask.empty probed
    in
    (Option.map (fun (r : Ofrule.t) -> r.id) best, consulted, probes)
end

(* Flows near the table's keys: sampled traffic, the same with low bits of
   the address and port fields flipped, and pool flows. *)
let unwildcard_flows rng sampled =
  let flip flow =
    List.fold_left
      (fun flow f ->
        let bits = 1 + Gf_util.Rng.int rng (min 16 (Field.width f)) in
        Flow.set flow f (Flow.get flow f lxor Gf_util.Rng.int rng (1 lsl bits)))
      flow
      Field.[ Ip_dst; Ip_src; Tp_dst; Tp_src ]
  in
  Array.concat [ sampled; Array.map flip sampled; Array.init 100 (fun _ -> pool_flow rng) ]

let check_against_reference name table flows =
  List.iter
    (fun mode ->
      Oftable.set_unwildcard table mode;
      let tuples = Ref_unwildcard.tuples table in
      Array.iter
        (fun flow ->
          let r = Oftable.lookup table flow in
          let id, consulted, probes = Ref_unwildcard.lookup ~mode tuples flow in
          let got_id = match r.Oftable.outcome with `Hit x -> Some x.Ofrule.id | `Miss -> None in
          if
            got_id <> id || r.Oftable.probes <> probes
            || not (Mask.equal r.Oftable.consulted consulted)
          then
            Alcotest.failf "%s (%s): %s consulted %s, reference %s" name
              (match mode with `Minimal -> "minimal" | `Full -> "full")
              (Flow.to_string flow) (Mask.to_string r.Oftable.consulted) (Mask.to_string consulted))
        flows)
    [ `Minimal; `Full ];
  Oftable.set_unwildcard table `Minimal

let test_unwildcard_matches_reference () =
  let profile =
    { Gf_workload.Classbench.acl_profile with endpoints = 128; subnets = 16; services = 32 }
  in
  List.iter
    (fun code ->
      let info = Option.get (Gf_pipelines.Catalog.find code) in
      let rs = Gf_workload.Ruleset.build ~profile ~combos:256 ~info ~seed:7 () in
      let sampled = Gf_workload.Ruleset.sample_flows rs ~seed:8 ~locality:Gf_workload.Ruleset.High ~n:150 in
      let flows = unwildcard_flows (Gf_util.Rng.create 9) sampled in
      List.iter
        (fun table -> check_against_reference (code ^ "/" ^ Oftable.name table) table flows)
        (Pipeline.tables (Gf_workload.Ruleset.pipeline rs)))
    [ "PSC"; "OLS"; "OTL" ];
  (* Pool tables with some non-prefix-shaped field masks, which the pass
     must treat as overlapping. *)
  let rng = Gf_util.Rng.create 10 in
  for _ = 1 to 20 do
    let rules =
      List.init 40 (fun id ->
          let r = pool_rule rng ~id ~action:(Action.output id) in
          if id mod 5 <> 0 then r
          else
            let f = Gf_util.Rng.pick rng [| Field.Ip_dst; Field.Tp_dst; Field.Vlan |] in
            let mask = Mask.set (Fmatch.mask r.Ofrule.fmatch) f (0x0F0F land Field.full_mask f) in
            Ofrule.v ~id ~priority:r.Ofrule.priority
              ~fmatch:(Fmatch.v ~pattern:(Fmatch.pattern r.Ofrule.fmatch) ~mask)
              ~action:r.Ofrule.action)
    in
    let flows = unwildcard_flows rng (Array.init 50 (fun _ -> pool_flow rng)) in
    check_against_reference "pool" (mk_table rules) flows
  done

(* The wildcard should also be reasonably tight: matching a lone rule in an
   otherwise empty table must consult exactly that rule's mask. *)
let test_unwildcard_tight_single_rule () =
  let fm = Fmatch.of_fields [ (Field.Vlan, 3) ] in
  let t = mk_table [ Ofrule.v ~id:1 ~priority:1 ~fmatch:fm ~action:(Action.drop ()) ] in
  let result = Oftable.lookup t (Flow.make [ (Field.Vlan, 3); (Field.Tp_dst, 99) ]) in
  Alcotest.check mask_testable "exactly the rule mask" (Fmatch.mask fm)
    result.Oftable.consulted

let test_unwildcard_disjoint_tuple_free () =
  (* A probed tuple whose keys are all far from the flow must cost few
     bits. *)
  let narrow =
    Ofrule.v ~id:1 ~priority:10
      ~fmatch:
        (Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(Headers.ipv4 "172.16.0.1")
           ~len:32)
      ~action:(Action.output 1)
  in
  let broad =
    Ofrule.v ~id:2 ~priority:1
      ~fmatch:
        (Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(Headers.ipv4 "10.0.0.0")
           ~len:8)
      ~action:(Action.output 2)
  in
  let t = mk_table [ narrow; broad ] in
  let result = Oftable.lookup t (Flow.make [ (Field.Ip_dst, Headers.ipv4 "10.1.2.3") ]) in
  let bits = Gf_util.Bitops.popcount (Mask.get result.Oftable.consulted Field.Ip_dst) in
  Alcotest.(check bool)
    (Printf.sprintf "few ip bits consulted (%d)" bits)
    true (bits <= 8)

let test_pipeline_structure () =
  let rng = Gf_util.Rng.create 11 in
  let p = random_pipeline rng ~tables:4 ~rules_per_table:5 in
  Alcotest.(check int) "tables" 4 (Pipeline.table_count p);
  Alcotest.(check int) "rules" 20 (Pipeline.rule_count p);
  Alcotest.(check bool) "table lookup" true (Pipeline.table_opt p 2 <> None);
  Alcotest.(check bool) "missing table" true (Pipeline.table_opt p 42 = None)

let test_pipeline_version_bumps () =
  let rng = Gf_util.Rng.create 12 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:2 in
  let v0 = Pipeline.version p in
  Pipeline.add_rule p ~table:0
    (pool_rule rng ~id:(Pipeline.fresh_rule_id p) ~action:(Action.drop ()));
  Alcotest.(check bool) "bumped on add" true (Pipeline.version p > v0);
  let v1 = Pipeline.version p in
  Alcotest.(check bool) "no bump on missing remove" true
    ((not (Pipeline.remove_rule p ~table:0 999_999)) && Pipeline.version p = v1)

let test_executor_terminates_and_traces () =
  let rng = Gf_util.Rng.create 13 in
  let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
  for _ = 1 to 200 do
    let flow = pool_flow rng in
    match Executor.execute p flow with
    | Error e -> Alcotest.failf "executor error: %a" Executor.pp_error e
    | Ok tr ->
        Alcotest.(check bool) "non-empty" true (Traversal.length tr >= 1);
        Alcotest.(check flow_testable) "input recorded" flow tr.Traversal.input;
        (* Steps chain: each flow_out is the next flow_in. *)
        let steps = tr.Traversal.steps in
        for i = 0 to Array.length steps - 2 do
          Alcotest.(check flow_testable) "chained" steps.(i).Traversal.flow_out
            steps.(i + 1).Traversal.flow_in
        done;
        Alcotest.(check flow_testable) "output is last flow_out"
          steps.(Array.length steps - 1).Traversal.flow_out tr.Traversal.output
  done

let test_executor_loop_guard () =
  (* A table that resubmits to itself must hit the loop limit... tables here
     are feed-forward, so emulate with goto to an unknown table instead. *)
  let t0 =
    Oftable.create ~id:0 ~name:"t0" ~match_fields:Field.Set.empty
      ~miss:(Action.goto 7)
  in
  let p = Pipeline.create ~name:"bad" ~entry:0 [ t0 ] in
  match Executor.execute p Flow.zero with
  | Error (Executor.Bad_goto 7) -> ()
  | Error e -> Alcotest.failf "unexpected error %a" Executor.pp_error e
  | Ok _ -> Alcotest.fail "expected Bad_goto"

let test_executor_trace_prefix () =
  let rng = Gf_util.Rng.create 14 in
  let p = random_pipeline rng ~tables:5 ~rules_per_table:8 in
  let flow = pool_flow rng in
  match Executor.execute p flow with
  | Error _ -> Alcotest.fail "unexpected error"
  | Ok tr ->
      let n = Traversal.length tr in
      if n >= 2 then begin
        let prefix = Executor.trace ~max_steps:1 p flow in
        Alcotest.(check int) "one step" 1 (Array.length prefix.Executor.prefix_steps);
        match prefix.Executor.status with
        | `More next ->
            Alcotest.(check int) "next table matches full trace" next
              tr.Traversal.steps.(1).Traversal.table_id
        | `Terminal _ | `Stuck _ -> Alcotest.fail "expected More"
      end

(* Traversal re-basing: a field consulted after being overwritten must not
   constrain the megaflow wildcard. *)
let test_traversal_rebasing () =
  let t0 =
    Oftable.create ~id:0 ~name:"t0" ~match_fields:(Field.Set.singleton Field.Vlan)
      ~miss:(Action.drop ())
  in
  Oftable.add_rule t0
    (Ofrule.v ~id:0 ~priority:1
       ~fmatch:(Fmatch.of_fields [ (Field.Vlan, 1) ])
       ~action:(Action.goto ~set_fields:[ (Field.Tp_dst, 8080) ] 1));
  let t1 =
    Oftable.create ~id:1 ~name:"t1" ~match_fields:(Field.Set.singleton Field.Tp_dst)
      ~miss:(Action.drop ())
  in
  Oftable.add_rule t1
    (Ofrule.v ~id:1 ~priority:1
       ~fmatch:(Fmatch.of_fields [ (Field.Tp_dst, 8080) ])
       ~action:(Action.output 1));
  let p = Pipeline.create ~name:"rebase" ~entry:0 [ t0; t1 ] in
  let flow = Flow.make [ (Field.Vlan, 1); (Field.Tp_dst, 443) ] in
  match Executor.execute p flow with
  | Error _ -> Alcotest.fail "unexpected error"
  | Ok tr ->
      let w = Traversal.megaflow_wildcard tr in
      Alcotest.(check int) "tp_dst not in input wildcard" 0 (Mask.get w Field.Tp_dst);
      Alcotest.(check int) "vlan in input wildcard" (Field.full_mask Field.Vlan)
        (Mask.get w Field.Vlan);
      (* The commit must replay the rewrite even though table 1 matched the
         rewritten value. *)
      let commit = Traversal.segment_commit tr ~first:0 ~last:(Traversal.length tr - 1) in
      Alcotest.(check bool) "commit contains rewrite" true
        (List.mem (Field.Tp_dst, 8080) commit)

(* The segment range checks are [invalid_arg], not [assert]: they must hold
   in a [-noassert] build too. *)
let test_traversal_segment_range_checked () =
  let rng = Gf_util.Rng.create 41 in
  let p = random_pipeline rng ~tables:3 ~rules_per_table:4 in
  match Executor.execute p (pool_flow rng) with
  | Error _ -> Alcotest.fail "no traversal"
  | Ok tr ->
      let steps = tr.Traversal.steps in
      let n = Array.length steps in
      List.iter
        (fun (first, last) ->
          Alcotest.check_raises
            (Printf.sprintf "wildcard_of_steps %d..%d" first last)
            (Invalid_argument "Traversal.wildcard_of_steps: segment out of range")
            (fun () -> ignore (Traversal.wildcard_of_steps steps ~first ~last));
          Alcotest.check_raises
            (Printf.sprintf "commit_of_steps %d..%d" first last)
            (Invalid_argument "Traversal.commit_of_steps: segment out of range")
            (fun () -> ignore (Traversal.commit_of_steps steps ~first ~last)))
        [ (-1, 0); (0, n); (1, 0) ]

let test_traversal_commit_composition () =
  (* Last writer wins; rewrites to the incumbent value are preserved. *)
  let mk_chain =
    let t0 =
      Oftable.create ~id:0 ~name:"t0" ~match_fields:Field.Set.empty
        ~miss:(Action.goto ~set_fields:[ (Field.Vlan, 5) ] 1)
    in
    let t1 =
      Oftable.create ~id:1 ~name:"t1" ~match_fields:Field.Set.empty
        ~miss:(Action.output ~set_fields:[ (Field.Vlan, 6); (Field.Tp_src, 1) ] 1)
    in
    Pipeline.create ~name:"commit" ~entry:0 [ t0; t1 ]
  in
  let flow = Flow.make [ (Field.Vlan, 6) ] in
  match Executor.execute mk_chain flow with
  | Error _ -> Alcotest.fail "unexpected error"
  | Ok tr ->
      let commit = Traversal.segment_commit tr ~first:0 ~last:(Traversal.length tr - 1) in
      Alcotest.(check bool) "last writer wins" true (List.mem (Field.Vlan, 6) commit);
      Alcotest.(check bool) "tp_src rewrite recorded" true
        (List.mem (Field.Tp_src, 1) commit)

let test_builder_validation () =
  let open Builder in
  let good =
    {
      spec_name = "g";
      entry_table = 0;
      tables =
        [
          { table_id = 0; table_name = "a"; fields = [ Field.In_port ] };
          { table_id = 1; table_name = "b"; fields = [ Field.Vlan ] };
        ];
      traversals =
        [ { hops = [ { table = 0; hop_fields = [ Field.In_port ] }; { table = 1; hop_fields = [] } ] } ];
    }
  in
  Alcotest.(check bool) "valid" true (validate good = Ok ());
  let dup = { good with tables = good.tables @ [ { table_id = 0; table_name = "c"; fields = [] } ] } in
  Alcotest.(check bool) "duplicate ids rejected" true (Result.is_error (validate dup));
  let bad_entry = { good with entry_table = 9 } in
  Alcotest.(check bool) "bad entry rejected" true (Result.is_error (validate bad_entry));
  let decreasing =
    {
      good with
      traversals =
        [ { hops = [ { table = 1; hop_fields = [] }; { table = 0; hop_fields = [] } ] } ];
    }
  in
  Alcotest.(check bool) "decreasing rejected" true (Result.is_error (validate decreasing));
  let bad_fields =
    {
      good with
      traversals = [ { hops = [ { table = 0; hop_fields = [ Field.Tp_dst ] } ] } ];
    }
  in
  Alcotest.(check bool) "hop fields exceed table" true
    (Result.is_error (validate bad_fields))

let test_builder_instantiate_miss_chain () =
  let open Builder in
  let spec =
    {
      spec_name = "chain";
      entry_table = 0;
      tables =
        [
          { table_id = 0; table_name = "a"; fields = [] };
          { table_id = 2; table_name = "b"; fields = [] };
        ];
      traversals = [ { hops = [ { table = 0; hop_fields = [] } ] } ];
    }
  in
  let p = instantiate spec in
  (* Misses chain 0 -> 2 -> drop. *)
  match Executor.execute p Flow.zero with
  | Ok tr ->
      Alcotest.(check (list int)) "miss path" [ 0; 2 ] (Traversal.path tr);
      Alcotest.check terminal_testable "drops" Action.Drop tr.Traversal.terminal
  | Error _ -> Alcotest.fail "unexpected error"

(* Adversarial nesting: many rules on ONE field with nested prefixes and
   crossing priorities — the hardest case for minimal exclusion. *)
let prop_unwildcard_nested_prefixes =
  QCheck2.Test.make ~name:"nested-prefix exclusion stays sound" ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let rules =
        List.init 40 (fun id ->
            let len = 8 + (4 * Gf_util.Rng.int rng 7) (* 8..32 step 4 *) in
            (* Cluster networks so prefixes genuinely nest. *)
            let net =
              (10 lsl 24)
              lor (Gf_util.Rng.int rng 4 lsl 16)
              lor (Gf_util.Rng.int rng 8 lsl 8)
              lor Gf_util.Rng.int rng 256
            in
            Ofrule.v ~id ~priority:(Gf_util.Rng.int rng 500)
              ~fmatch:(Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:net ~len)
              ~action:(Action.output id))
      in
      let t = mk_table rules in
      let ok = ref true in
      for _ = 1 to 60 do
        let flow =
          Flow.make
            [
              ( Field.Ip_dst,
                (10 lsl 24)
                lor (Gf_util.Rng.int rng 4 lsl 16)
                lor Gf_util.Rng.int rng 65536 );
            ]
        in
        let r1 = Oftable.lookup t flow in
        for _ = 1 to 6 do
          let probe = agreeing_flow rng r1.Oftable.consulted flow in
          let r2 = Oftable.lookup t probe in
          let same =
            match (r1.Oftable.outcome, r2.Oftable.outcome) with
            | `Hit a, `Hit b -> a.Ofrule.id = b.Ofrule.id
            | `Miss, `Miss -> true
            | `Hit _, `Miss | `Miss, `Hit _ -> false
          in
          if not same then ok := false
        done
      done;
      !ok)

(* Tuples tying on max priority are probed in an order fixed by their
   masks, so a lookup's outcome, consulted wildcard and probe count do not
   depend on the order rules were added (nor on any hash iteration order). *)
let prop_lookup_insertion_order_invariant =
  QCheck2.Test.make ~name:"oftable lookup independent of insertion order" ~count:200
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let rules =
        Array.init 100 (fun id ->
            (* Two priority levels: most tuples tie on max priority. *)
            let r = pool_rule rng ~id ~action:(Action.output id) in
            Ofrule.v ~id ~priority:(Gf_util.Rng.int rng 2) ~fmatch:r.Ofrule.fmatch
              ~action:r.Ofrule.action)
      in
      let a = mk_table (Array.to_list rules) in
      Gf_util.Rng.shuffle rng rules;
      let b = mk_table (Array.to_list rules) in
      List.for_all
        (fun flow ->
          let ra = Oftable.lookup a flow and rb = Oftable.lookup b flow in
          (match (ra.Oftable.outcome, rb.Oftable.outcome) with
          | `Hit x, `Hit y -> x.Ofrule.id = y.Ofrule.id
          | `Miss, `Miss -> true
          | `Hit _, `Miss | `Miss, `Hit _ -> false)
          && Mask.equal ra.Oftable.consulted rb.Oftable.consulted
          && ra.Oftable.probes = rb.Oftable.probes)
        (List.init 50 (fun _ -> pool_flow rng)))

let suite =
  [
    ("action apply_sets", `Quick, test_action_apply_sets);
    ("action equality", `Quick, test_action_equal);
    ("ofrule same_behaviour", `Quick, test_ofrule_same_behaviour);
    ("oftable priority selection", `Quick, test_oftable_priority_selection);
    ("oftable tie-break by id", `Quick, test_oftable_tie_break_lowest_id);
    ("oftable copies isolated", `Quick, test_oftable_copy_isolated);
    ("oftable remove", `Quick, test_oftable_remove);
    ("minimal unwildcarding (paper 4.2.3 example)", `Quick, test_minimal_unwildcarding_paper_example);
    ("unwildcard tight for single rule", `Quick, test_unwildcard_tight_single_rule);
    ("unwildcard cheap for distant tuples", `Quick, test_unwildcard_disjoint_tuple_free);
    ("unwildcard = list-based reference", `Quick, test_unwildcard_matches_reference);
    ("pipeline structure", `Quick, test_pipeline_structure);
    ("pipeline version bumps", `Quick, test_pipeline_version_bumps);
    ("executor traces chains", `Quick, test_executor_terminates_and_traces);
    ("executor bad goto", `Quick, test_executor_loop_guard);
    ("executor prefix trace", `Quick, test_executor_trace_prefix);
    ("traversal wildcard re-basing", `Quick, test_traversal_rebasing);
    ("traversal commit composition", `Quick, test_traversal_commit_composition);
    ("traversal segment range checked", `Quick, test_traversal_segment_range_checked);
    ("builder validation", `Quick, test_builder_validation);
    ("builder miss chain", `Quick, test_builder_instantiate_miss_chain);
  ]

let props =
  [
    prop_unwildcard_sound;
    prop_unwildcard_nested_prefixes;
    prop_lookup_insertion_order_invariant;
  ]
