(* Tests for gigaflow.classifier: Linear, TSS, NuevoMatch, Searcher. *)

open Helpers
module Entry = Gf_classifier.Entry
module Linear = Gf_classifier.Linear
module Tss = Gf_classifier.Tss
module Nm = Gf_classifier.Nuevomatch
module Searcher = Gf_classifier.Searcher

(* Build the same entries into every classifier. *)
let random_entries rng n =
  List.init n (fun key ->
      let action = Gf_pipeline.Action.output key in
      let rule = pool_rule rng ~id:key ~action in
      Entry.v ~key ~fmatch:rule.Gf_pipeline.Ofrule.fmatch
        ~priority:rule.Gf_pipeline.Ofrule.priority key)

let winner_key : 'a. 'a Entry.t option -> int = function
  | None -> -1
  | Some e -> e.Entry.key

let test_entry_better () =
  let fm = Fmatch.any in
  let a = Entry.v ~key:1 ~fmatch:fm ~priority:5 () in
  let b = Entry.v ~key:2 ~fmatch:fm ~priority:5 () in
  let c = Entry.v ~key:3 ~fmatch:fm ~priority:7 () in
  Alcotest.(check bool) "priority wins" true (Entry.better c a);
  Alcotest.(check bool) "tie to lower key" true (Entry.better a b);
  Alcotest.(check bool) "not better than self" false (Entry.better a a)

let agreement_prop name lookup_b =
  QCheck2.Test.make ~name ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 120))
    (fun (seed, n) ->
      let rng = Gf_util.Rng.create seed in
      let entries = random_entries rng n in
      let lin = Linear.create () in
      List.iter (Linear.insert lin) entries;
      let other = lookup_b entries in
      let ok = ref true in
      for _ = 1 to 50 do
        let flow = pool_flow rng in
        let expected, _ = Linear.lookup lin flow in
        let got = other flow in
        if winner_key expected <> winner_key got then ok := false
      done;
      !ok)

let prop_tss_agrees_linear =
  agreement_prop "tss = linear reference" (fun entries ->
      let t = Tss.create () in
      List.iter (Tss.insert t) entries;
      fun flow -> fst (Tss.lookup t flow))

let prop_nm_agrees_linear =
  agreement_prop "nuevomatch = linear reference" (fun entries ->
      let t = Nm.create () in
      List.iter (Nm.insert t) entries;
      Nm.retrain t;
      fun flow -> fst (Nm.lookup t flow))

let prop_nm_untrained_agrees =
  agreement_prop "nuevomatch (delta only) = linear" (fun entries ->
      let t = Nm.create () in
      List.iter (Nm.insert t) entries;
      fun flow -> fst (Nm.lookup t flow))

let removal_prop name create insert remove lookup =
  QCheck2.Test.make ~name ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let entries = random_entries rng 80 in
      let t = create () in
      List.iter (insert t) entries;
      (* Remove half the keys. *)
      List.iteri
        (fun i (e : int Entry.t) -> if i mod 2 = 0 then assert (remove t e.Entry.key))
        entries;
      let lin = Linear.create () in
      List.iteri (fun i e -> if i mod 2 = 1 then Linear.insert lin e) entries;
      let ok = ref true in
      for _ = 1 to 50 do
        let flow = pool_flow rng in
        if winner_key (fst (Linear.lookup lin flow)) <> winner_key (lookup t flow) then
          ok := false
      done;
      !ok)

let prop_tss_removal =
  removal_prop "tss after removals = linear" Tss.create Tss.insert Tss.remove
    (fun t flow -> fst (Tss.lookup t flow))

(* Reference for [Tss.lookup]: tuples regrouped from the live entries and
   fully re-sorted by max priority on every call, scanned with the same
   stop rule. *)
let ref_tss_lookup (entries : int Entry.t list) flow =
  let tuples = Mask.Tbl.create 8 in
  List.iter
    (fun (e : int Entry.t) ->
      let mask = Fmatch.mask e.fmatch in
      Mask.Tbl.replace tuples mask (e :: Option.value ~default:[] (Mask.Tbl.find_opt tuples mask)))
    entries;
  let sorted =
    Mask.Tbl.fold
      (fun _ es acc -> (List.fold_left (fun m (e : int Entry.t) -> max m e.priority) min_int es, es) :: acc)
      tuples []
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let better_opt best c =
    match (best, c) with
    | None, c -> c
    | b, None -> b
    | Some b, Some c -> if Entry.better c b then Some c else Some b
  in
  let rec scan best probes = function
    | [] -> (best, probes)
    | (max_priority, es) :: rest -> (
        match best with
        | Some (b : int Entry.t) when b.priority > max_priority -> (best, probes)
        | _ ->
            let c =
              List.fold_left
                (fun acc e -> if Entry.matches e flow then better_opt acc (Some e) else acc)
                None es
            in
            scan (better_opt best c) (probes + 1) rest)
  in
  scan None 0 sorted

(* Random insert/remove sequences over a few shared masks: priority ties,
   removal of a tuple's max-priority entry, and deletion of a tuple's last
   entry.  The incrementally kept tuple order must give
   the same winner and probe count as a full re-sort, and [probes_for]
   the winner's priority must recount that probe count. *)
let prop_tss_order_incremental =
  QCheck2.Test.make ~name:"tss incremental order = full re-sort" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let masks =
        Array.init (2 + Gf_util.Rng.int rng 5) (fun id ->
            Fmatch.mask (pool_rule rng ~id ~action:(Gf_pipeline.Action.drop ())).Gf_pipeline.Ofrule.fmatch)
      in
      let t = Tss.create () in
      let live = Hashtbl.create 64 in
      let next_key = ref 0 in
      let remove key =
        ignore (Tss.remove t key);
        Hashtbl.remove live key
      in
      let live_entries () = Hashtbl.fold (fun _ e acc -> e :: acc) live [] in
      let same_tuple (e : int Entry.t) =
        List.filter
          (fun (x : int Entry.t) -> Mask.equal (Fmatch.mask x.fmatch) (Fmatch.mask e.fmatch))
          (live_entries ())
      in
      let ok = ref true in
      for step = 1 to 200 do
        (match live_entries () with
        | _ :: _ as es when Gf_util.Rng.int rng 100 >= 65 -> (
            let e = List.nth es (Gf_util.Rng.int rng (List.length es)) in
            match Gf_util.Rng.int rng 3 with
            | 0 -> remove e.Entry.key
            | 1 ->
                (* the tuple's best entry: its max priority *)
                let best =
                  List.fold_left
                    (fun b x -> if Entry.better x b then x else b)
                    e (same_tuple e)
                in
                remove best.Entry.key
            | _ -> List.iter (fun (x : int Entry.t) -> remove x.key) (same_tuple e))
        | _ ->
            let key = !next_key in
            incr next_key;
            (* Tuple i's priorities are i or i + 1: neighbours tie, and a
               tuple's max drops when its (i + 1)-entries go. *)
            let i = Gf_util.Rng.int rng (Array.length masks) in
            let e =
              Entry.v ~key
                ~fmatch:(Fmatch.v ~pattern:(pool_flow rng) ~mask:masks.(i))
                ~priority:(i + Gf_util.Rng.int rng 2) key
            in
            Tss.insert t e;
            Hashtbl.replace live key e);
        if step mod 5 = 0 then begin
          let es = live_entries () in
          for _ = 1 to 20 do
            let flow =
              match es with
              | _ :: _ when Gf_util.Rng.bool rng ->
                  let e = List.nth es (Gf_util.Rng.int rng (List.length es)) in
                  agreeing_flow rng (Fmatch.mask e.Entry.fmatch) (Fmatch.pattern e.Entry.fmatch)
              | _ -> pool_flow rng
            in
            let got, got_probes = Tss.lookup t flow in
            let want, want_probes = ref_tss_lookup es flow in
            let recounted =
              Tss.probes_for t (match got with Some e -> e.Entry.priority | None -> min_int)
            in
            if
              winner_key got <> winner_key want || got_probes <> want_probes
              || recounted <> got_probes
            then ok := false
          done
        end
      done;
      !ok)

let prop_nm_removal =
  removal_prop "nuevomatch after removals = linear"
    (fun () ->
      let t = Nm.create () in
      t)
    Nm.insert Nm.remove
    (fun t flow -> fst (Nm.lookup t flow))

let prop_nm_removal_trained =
  removal_prop "nuevomatch (trained) after removals = linear"
    (fun () -> Nm.create ())
    (fun t e ->
      Nm.insert t e;
      if Nm.size t = 80 then Nm.retrain t)
    Nm.remove
    (fun t flow -> fst (Nm.lookup t flow))

let test_duplicate_key_rejected () =
  let t = Tss.create () in
  let e = Entry.v ~key:1 ~fmatch:Fmatch.any ~priority:0 () in
  Tss.insert t e;
  Alcotest.check_raises "duplicate" (Invalid_argument "Tss.insert: duplicate key")
    (fun () -> Tss.insert t e)

let test_tss_tuple_count () =
  let t = Tss.create () in
  let fm1 = Fmatch.of_fields [ (Field.Ip_dst, 1) ] in
  let fm2 = Fmatch.of_fields [ (Field.Ip_dst, 2) ] in
  let fm3 = Fmatch.of_fields [ (Field.Tp_dst, 3) ] in
  Tss.insert t (Entry.v ~key:1 ~fmatch:fm1 ~priority:0 ());
  Tss.insert t (Entry.v ~key:2 ~fmatch:fm2 ~priority:0 ());
  Tss.insert t (Entry.v ~key:3 ~fmatch:fm3 ~priority:0 ());
  Alcotest.(check int) "two masks = two tuples" 2 (Tss.tuple_count t);
  ignore (Tss.remove t 3);
  Alcotest.(check int) "tuple gc'd" 1 (Tss.tuple_count t)

let test_tss_priority_pruning () =
  (* A high-priority match in the first tuple must stop the search. *)
  let t = Tss.create () in
  Tss.insert t
    (Entry.v ~key:1 ~fmatch:(Fmatch.of_fields [ (Field.Vlan, 1) ]) ~priority:10 ());
  for k = 2 to 11 do
    Tss.insert t
      (Entry.v ~key:k ~fmatch:(Fmatch.of_fields [ (Field.Tp_dst, k) ]) ~priority:1 ())
  done;
  let flow = Flow.make [ (Field.Vlan, 1); (Field.Tp_dst, 5) ] in
  let result, work = Tss.lookup t flow in
  Alcotest.(check int) "high priority wins" 1 (winner_key result);
  Alcotest.(check bool) "pruned" true (work <= 2)

let test_nm_trains_isets () =
  let rng = Gf_util.Rng.create 99 in
  let t = Nm.create () in
  (* Many disjoint ip_dst exact entries: ideal iSet material. *)
  for k = 0 to 199 do
    let fm = Fmatch.of_fields [ (Field.Ip_dst, k * 1000) ] in
    Nm.insert t (Entry.v ~key:k ~fmatch:fm ~priority:0 ())
  done;
  Nm.retrain t;
  Alcotest.(check bool) "at least one iset" true (Nm.iset_count t >= 1);
  Alcotest.(check int) "delta empty after train" 0 (Nm.delta_size t);
  (* Lookup cost should be far below the entry count. *)
  let flow = Flow.make [ (Field.Ip_dst, 57 * 1000) ] in
  let result, work = Nm.lookup t flow in
  Alcotest.(check int) "found" 57 (winner_key result);
  Alcotest.(check bool) (Printf.sprintf "o(1)-ish work (%d)" work) true (work < 40);
  ignore rng

let test_nm_auto_retrain () =
  let t = Nm.create () in
  for k = 0 to 999 do
    let fm = Fmatch.of_fields [ (Field.Ip_dst, k * 64) ] in
    Nm.insert t (Entry.v ~key:k ~fmatch:fm ~priority:0 ())
  done;
  (* The 25% delta threshold must have triggered training along the way. *)
  Alcotest.(check bool) "auto-trained" true (Nm.iset_count t >= 1)

let test_searcher_dispatch () =
  List.iter
    (fun algo ->
      let s = Searcher.create algo in
      Searcher.insert s (Entry.v ~key:1 ~fmatch:(Fmatch.of_fields [ (Field.Vlan, 4) ]) ~priority:1 "x");
      Alcotest.(check int) "size" 1 (Searcher.size s);
      let hit, _ = Searcher.lookup s (Flow.make [ (Field.Vlan, 4) ]) in
      Alcotest.(check bool) "hit" true (Option.is_some hit);
      let miss, _ = Searcher.lookup s (Flow.make [ (Field.Vlan, 5) ]) in
      Alcotest.(check bool) "miss" true (Option.is_none miss);
      Alcotest.(check bool) "remove" true (Searcher.remove s 1);
      Alcotest.(check int) "empty" 0 (Searcher.size s))
    [ `Linear; `Tss; `Nuevomatch ]

let test_searcher_names () =
  Alcotest.(check (option string)) "roundtrip tss" (Some "tss")
    (Option.map Searcher.algo_name (Searcher.algo_of_string "tss"));
  Alcotest.(check (option string)) "nm alias" (Some "nuevomatch")
    (Option.map Searcher.algo_name (Searcher.algo_of_string "nm"));
  Alcotest.(check bool) "unknown" true (Searcher.algo_of_string "bogus" = None)

let suite =
  [
    ("entry ordering", `Quick, test_entry_better);
    ("duplicate key rejected", `Quick, test_duplicate_key_rejected);
    ("tss tuple count", `Quick, test_tss_tuple_count);
    ("tss priority pruning", `Quick, test_tss_priority_pruning);
    ("nm trains isets", `Quick, test_nm_trains_isets);
    ("nm auto retrain", `Quick, test_nm_auto_retrain);
    ("searcher dispatch", `Quick, test_searcher_dispatch);
    ("searcher names", `Quick, test_searcher_names);
  ]

let props =
  [
    prop_tss_agrees_linear;
    prop_tss_order_incremental;
    prop_nm_agrees_linear;
    prop_nm_untrained_agrees;
    prop_tss_removal;
    prop_nm_removal;
    prop_nm_removal_trained;
  ]
