(* Tests for gigaflow.offload (the heavy-hitter admission sketch), the
   cuckoo software cache level and the end-to-end skew-aware admission
   path. *)

module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Hit = Gf_cache.Hit
module Action = Gf_pipeline.Action
module Heavy_hitter = Gf_offload.Heavy_hitter
module Cuckoo = Gf_cache.Cuckoo
module Install = Gf_cache.Install
module Catalog = Gf_pipelines.Catalog
module Ruleset = Gf_workload.Ruleset
module Pipebench = Gf_workload.Pipebench
module Trace = Gf_workload.Trace
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics

let flow i = Flow.make [ (Field.Vlan, i) ]

(* ------------------------------ sketch ------------------------------ *)

let test_hh_exact_when_small () =
  (* With at most k distinct flows the sketch is an exact counter. *)
  let t = Heavy_hitter.create ~k:8 in
  for round = 1 to 5 do
    for i = 1 to 4 do
      if i <= round then Heavy_hitter.observe t (flow i)
    done
  done;
  (* flow i observed (5 - i + 1) times for i in 1..4 *)
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "count flow %d" i)
        (6 - i)
        (Heavy_hitter.count t (flow i));
      Alcotest.(check int)
        (Printf.sprintf "guaranteed flow %d" i)
        (6 - i)
        (Heavy_hitter.guaranteed t (flow i)))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "size" 4 (Heavy_hitter.size t);
  Alcotest.(check int) "observed" 14 (Heavy_hitter.observed t);
  Alcotest.(check bool) "untracked counts 0" true
    (Heavy_hitter.count t (flow 99) = 0)

let test_hh_replacement_inherits_error () =
  let t = Heavy_hitter.create ~k:2 in
  Heavy_hitter.observe t (flow 1);
  Heavy_hitter.observe t (flow 1);
  Heavy_hitter.observe t (flow 2);
  (* Full: flow 3 replaces the minimum (flow 2, count 1) and inherits its
     count as error. *)
  Heavy_hitter.observe t (flow 3);
  Alcotest.(check int) "count = victim + 1" 2 (Heavy_hitter.count t (flow 3));
  Alcotest.(check int) "guaranteed strips inherited" 1
    (Heavy_hitter.guaranteed t (flow 3));
  Alcotest.(check bool) "victim gone" true (Heavy_hitter.count t (flow 2) = 0);
  Alcotest.(check bool) "not hot on inherited count" false
    (Heavy_hitter.hot t ~threshold:2 (flow 3));
  Alcotest.(check bool) "hot at its guaranteed count" true
    (Heavy_hitter.hot t ~threshold:1 (flow 3))

let test_hh_decay () =
  let t = Heavy_hitter.create ~k:4 in
  for _ = 1 to 8 do
    Heavy_hitter.observe t (flow 1)
  done;
  Heavy_hitter.observe t (flow 2);
  Heavy_hitter.decay t;
  Alcotest.(check int) "halved" 4 (Heavy_hitter.count t (flow 1));
  Alcotest.(check int) "floor-halving prunes singletons" 0
    (Heavy_hitter.count t (flow 2));
  Alcotest.(check int) "size shrank" 1 (Heavy_hitter.size t);
  (* The sketch must keep working after compaction. *)
  Heavy_hitter.observe t (flow 3);
  Alcotest.(check int) "fresh insert after decay" 1 (Heavy_hitter.count t (flow 3))

let test_hh_top_order () =
  let t = Heavy_hitter.create ~k:8 in
  List.iter
    (fun (i, n) ->
      for _ = 1 to n do
        Heavy_hitter.observe t (flow i)
      done)
    [ (1, 3); (2, 7); (3, 5) ];
  let ranks = List.map (fun (_, c, _) -> c) (Heavy_hitter.top t ~n:3) in
  Alcotest.(check (list int)) "descending counts" [ 7; 5; 3 ] ranks

(* Sketch property: for any observation stream, count over-estimates and
   guaranteed = count - err under-estimates the true per-flow frequency,
   and the tracked set never exceeds k. *)
let prop_hh_bounds =
  QCheck2.Test.make ~name:"space-saving count/guaranteed bracket the truth"
    ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let k = 1 + Gf_util.Rng.int rng 8 in
      let universe = 1 + Gf_util.Rng.int rng 24 in
      let t = Heavy_hitter.create ~k in
      let truth = Hashtbl.create 32 in
      let ok = ref true in
      for _ = 1 to 400 do
        let i = 1 + Gf_util.Rng.int rng universe in
        Heavy_hitter.observe t (flow i);
        Hashtbl.replace truth i (1 + Option.value ~default:0 (Hashtbl.find_opt truth i));
        if Heavy_hitter.size t > k then ok := false
      done;
      Hashtbl.iter
        (fun i true_count ->
          let c = Heavy_hitter.count t (flow i) in
          let g = Heavy_hitter.guaranteed t (flow i) in
          if c > 0 && (c < true_count || g > true_count) then ok := false)
        truth;
      !ok)

let test_hh_policy_strings () =
  let roundtrip s expect =
    match Heavy_hitter.policy_of_string s with
    | Ok p -> Alcotest.(check string) s expect (Heavy_hitter.policy_to_string p)
    | Error e -> Alcotest.fail e
  in
  roundtrip "all" "all";
  roundtrip "hh" (Printf.sprintf "hh:%d@%d" Heavy_hitter.default_k Heavy_hitter.default_threshold);
  roundtrip "hh:32" (Printf.sprintf "hh:32@%d" Heavy_hitter.default_threshold);
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Heavy_hitter.policy_of_string "hh:zero"))

(* ------------------------------ cuckoo ------------------------------ *)

let a_hit = { Hit.terminal = Action.Output 1; out_flow = Flow.zero }

let test_cuckoo_roundtrip () =
  let c = Cuckoo.create ~capacity:64 () in
  Alcotest.(check bool) "miss first" true (Cuckoo.lookup c ~now:0.0 (flow 1) = None);
  ignore (Cuckoo.install c ~now:0.0 (flow 1) a_hit);
  (match Cuckoo.lookup c ~now:1.0 (flow 1) with
  | Some h -> Alcotest.(check bool) "terminal" true (h.Hit.terminal = Action.Output 1)
  | None -> Alcotest.fail "installed flow missing");
  Alcotest.(check int) "occupancy" 1 (Cuckoo.occupancy c);
  (* Same-key reinstall replaces, does not duplicate. *)
  ignore (Cuckoo.install c ~now:2.0 (flow 1) { a_hit with terminal = Action.Drop });
  Alcotest.(check int) "still one entry" 1 (Cuckoo.occupancy c);
  match Cuckoo.lookup c ~now:3.0 (flow 1) with
  | Some h -> Alcotest.(check bool) "replaced" true (h.Hit.terminal = Action.Drop)
  | None -> Alcotest.fail "replaced flow missing"

let test_cuckoo_expire_and_flush () =
  let c = Cuckoo.create ~capacity:64 () in
  ignore (Cuckoo.install c ~now:0.0 (flow 1) a_hit);
  ignore (Cuckoo.install c ~now:5.0 (flow 2) a_hit);
  Alcotest.(check int) "one expired" 1 (Cuckoo.expire c ~now:11.0 ~max_idle:10.0);
  Alcotest.(check bool) "old gone" true (Cuckoo.lookup c ~now:11.0 (flow 1) = None);
  Alcotest.(check bool) "fresh kept" true (Cuckoo.lookup c ~now:11.0 (flow 2) <> None);
  Alcotest.(check int) "flush" 1 (Cuckoo.invalidate_all c);
  Alcotest.(check int) "empty" 0 (Cuckoo.occupancy c)

let test_cuckoo_reject_at_capacity () =
  let c = Cuckoo.create ~policy:Gf_cache.Evict.Reject ~capacity:4 () in
  for i = 1 to 4 do
    ignore (Cuckoo.install c ~now:(float_of_int i) (flow i) a_hit)
  done;
  Alcotest.(check int) "full" 4 (Cuckoo.occupancy c);
  Alcotest.(check Helpers.install_testable) "rejection returned"
    (Install.Rejected { pressure_evicted = 0 })
    (Cuckoo.install c ~now:5.0 (flow 5) a_hit);
  Alcotest.(check int) "occupancy capped" 4 (Cuckoo.occupancy c);
  Alcotest.(check bool) "newcomer absent" true (Cuckoo.lookup c ~now:6.0 (flow 5) = None);
  Alcotest.(check Helpers.install_testable) "re-install of a resident key"
    (Helpers.installed_one 0)
    (Cuckoo.install c ~now:5.0 (flow 4) a_hit);
  (* Existing entries survive the refused install. *)
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "flow %d intact" i)
      true
      (Cuckoo.lookup c ~now:6.0 (flow i) <> None)
  done

(* Under random install/lookup/expire churn, occupancy must track the set
   of live keys exactly and never exceed the admission bound, under every
   policy: an install over the bound evicts first, from the newcomer's
   two buckets or, when both are empty, table-wide. *)
let prop_cuckoo_churn =
  QCheck2.Test.make ~name:"cuckoo size accounting under churn" ~count:50
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let policy =
        Gf_util.Rng.pick rng
          [|
            Gf_cache.Evict.Reject; Gf_cache.Evict.Lru; Gf_cache.Evict.Random;
            Gf_cache.Evict.Priority_aware;
          |]
      in
      let capacity = 4 + Gf_util.Rng.int rng 12 in
      let c = Cuckoo.create ~policy ~capacity () in
      let ok = ref true in
      for i = 1 to 400 do
        let now = float_of_int i in
        let f = flow (1 + Gf_util.Rng.int rng 64) in
        (match Gf_util.Rng.int rng 3 with
        | 0 -> ignore (Cuckoo.install c ~now f a_hit)
        | 1 ->
            (* A lookup hit must return exactly what an install wrote. *)
            ignore (Cuckoo.lookup c ~now f)
        | _ -> if i mod 50 = 0 then ignore (Cuckoo.expire c ~now ~max_idle:30.0));
        if Cuckoo.occupancy c > capacity then ok := false
      done;
      (* Count live keys by probing the whole key universe: occupancy must
         agree with what lookup can actually reach. *)
      let reachable = ref 0 in
      for i = 1 to 64 do
        if Cuckoo.lookup c ~now:1000.0 (flow i) <> None then incr reachable
      done;
      !ok && !reachable = Cuckoo.occupancy c)

(* The dense store against the flat-array store it replaced
   ([Cuckoo_ref]): random streams of every operation over a key universe
   a few times the bound, at capacities 1-64 so kicks, dropped chain ends
   and policy victims all occur, under every policy and one RNG seed.
   Every return value, every occupancy and a final lookup over the whole
   universe must agree. *)
let prop_cuckoo_matches_reference =
  let policies = Array.of_list Gf_cache.Evict.all in
  QCheck2.Test.make ~name:"cuckoo dense store = flat reference" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let policy = Gf_util.Rng.pick rng policies in
      let capacity = 1 + Gf_util.Rng.int rng 64 in
      let universe = (3 * capacity) + 8 in
      let c = Cuckoo.create ~policy ~rng_seed:0x5EED ~capacity () in
      let r = Cuckoo_ref.create ~policy ~rng_seed:0x5EED ~capacity () in
      let agree what a b =
        if a <> b then QCheck2.Test.fail_reportf "seed %d: %s differs" seed what
      in
      agree "slots" (Cuckoo.slots c) (Cuckoo_ref.slots r);
      for i = 1 to 600 do
        let now = float_of_int i in
        let f = flow (1 + Gf_util.Rng.int rng universe) in
        (match Gf_util.Rng.int rng 100 with
        | k when k < 50 ->
            let hit = { a_hit with Hit.terminal = Action.Output i } in
            agree "install" (Cuckoo.install c ~now f hit) (Cuckoo_ref.install r ~now f hit)
        | k when k < 85 -> agree "lookup" (Cuckoo.lookup c ~now f) (Cuckoo_ref.lookup r ~now f)
        | k when k < 92 ->
            let max_idle = float_of_int (Gf_util.Rng.int rng 100) in
            agree "expire" (Cuckoo.expire c ~now ~max_idle) (Cuckoo_ref.expire r ~now ~max_idle)
        | k when k < 93 -> agree "invalidate_all" (Cuckoo.invalidate_all c) (Cuckoo_ref.invalidate_all r)
        | k when k < 97 ->
            let cap = 1 + Gf_util.Rng.int rng 64 in
            Cuckoo.set_capacity c cap;
            Cuckoo_ref.set_capacity r cap;
            agree "capacity" (Cuckoo.capacity c) (Cuckoo_ref.capacity r)
        | _ ->
            let p = Gf_util.Rng.pick rng policies in
            Cuckoo.set_policy c p;
            Cuckoo_ref.set_policy r p);
        agree "occupancy" (Cuckoo.occupancy c) (Cuckoo_ref.occupancy r)
      done;
      for i = 1 to universe do
        agree "final lookup" (Cuckoo.lookup c ~now:1e6 (flow i)) (Cuckoo_ref.lookup r ~now:1e6 (flow i))
      done;
      true)

(* A lookup is one directory read and at most two bucket probes: neither
   a hit nor a miss may allocate.  Net of the cost of the [Gc.minor_words]
   reads themselves, measured back to back. *)
let test_cuckoo_lookup_allocation_free () =
  let c = Cuckoo.create ~capacity:1_000_000 () in
  for i = 1 to 64 do
    ignore (Cuckoo.install c ~now:0.0 (flow i) a_hit : Install.t)
  done;
  (* Odd probes hit, even probes miss (keys 65-128 were never installed). *)
  let probes = Array.init 64 (fun i -> flow (if i land 1 = 1 then i else 64 + i)) in
  let r0 = Gc.minor_words () in
  let r1 = Gc.minor_words () in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Sys.opaque_identity (Cuckoo.lookup c ~now:1.0 probes.(i land 63)))
  done;
  let words = Gc.minor_words () -. before -. (r1 -. r0) in
  Alcotest.(check (float 0.)) "minor words" 0. words

(* Storage follows the residents, not the admission bound: neither a
   million-entry cuckoo nor the gf_sw_hh hierarchy over it may allocate a
   word per slot of its geometry (2,097,152 slots) on creation. *)
let test_cuckoo_create_cost () =
  let words f =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let under name w =
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f words < 1M" name w) true (w < 1e6)
  in
  under "Cuckoo.create" (words (fun () -> Cuckoo.create ~capacity:1_000_000 ()));
  let pipeline =
    Pipebench.pipeline
      (Pipebench.make ~combos:64 ~unique_flows:100
         ~info:(Option.get (Catalog.find "PSC"))
         ~locality:Ruleset.High ~seed:3 ())
  in
  under "Datapath.create gf_sw_hh"
    (words (fun () -> Datapath.create (Datapath.gf_sw_hh ()) pipeline))

(* ----------------------------- retarget ------------------------------ *)

let test_hh_retarget_preserves_hot_set () =
  let t = Heavy_hitter.create ~k:8 in
  (* Flow i observed (9 - i) times: 1 is the biggest elephant. *)
  for i = 1 to 8 do
    for _ = 1 to 9 - i do
      Heavy_hitter.observe t (flow i)
    done
  done;
  let observed = Heavy_hitter.observed t in
  (* Shrink: the lowest-count rows fall off, the elephants survive with
     their counts (not rebuilt from scratch). *)
  Heavy_hitter.retarget t ~k:3;
  Alcotest.(check int) "k" 3 (Heavy_hitter.k t);
  Alcotest.(check int) "size" 3 (Heavy_hitter.size t);
  Alcotest.(check int) "observed carries over" observed (Heavy_hitter.observed t);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "count flow %d survives" i)
        (9 - i)
        (Heavy_hitter.count t (flow i)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "truncated flow forgotten" 0
    (Heavy_hitter.count t (flow 7));
  Alcotest.(check bool) "invariants" true (Heavy_hitter.check_invariants t);
  (* Grow: everything tracked stays, new rows open up. *)
  Heavy_hitter.retarget t ~k:16;
  Alcotest.(check int) "k after grow" 16 (Heavy_hitter.k t);
  Alcotest.(check int) "size after grow" 3 (Heavy_hitter.size t);
  Alcotest.(check int) "counts after grow" 8 (Heavy_hitter.count t (flow 1));
  Heavy_hitter.observe t (flow 42);
  Alcotest.(check int) "new flow admitted" 1 (Heavy_hitter.count t (flow 42));
  Alcotest.(check bool) "invariants after grow" true
    (Heavy_hitter.check_invariants t);
  (* Same k is a no-op; k < 1 is a caller bug. *)
  Heavy_hitter.retarget t ~k:16;
  Alcotest.(check int) "no-op keeps size" 4 (Heavy_hitter.size t);
  match Heavy_hitter.retarget t ~k:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "retarget accepted k=0"

(* Structural invariant under arbitrary interleavings of every mutation
   the sketch supports — observe, decay, retarget: the row index must
   keep finding every live row, and the cached head of the minimum-count
   run must stay that run's leftmost row (the O(1) bump-by-swap
   precondition). *)
let prop_hh_invariants_under_interleaving =
  QCheck2.Test.make
    ~name:"sketch invariants hold under observe/decay/retarget" ~count:80
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let t = Heavy_hitter.create ~k:(1 + Gf_util.Rng.int rng 8) in
      let ok = ref true in
      let step () =
        match Gf_util.Rng.int rng 20 with
        | 0 -> Heavy_hitter.decay t
        | 1 ->
            (* Retarget to a nearby k, shrink or grow. *)
            Heavy_hitter.retarget t ~k:(1 + Gf_util.Rng.int rng 12)
        | _ -> Heavy_hitter.observe t (flow (1 + Gf_util.Rng.int rng 24))
      in
      for _ = 1 to 200 do
        step ();
        if not (Heavy_hitter.check_invariants t) then ok := false
      done;
      !ok)

(* The sketch against the one it replaced ([Hh_ref], a [Flow.Tbl] row
   index and an [Int_tbl] run-boundary map): random streams over a
   universe of a few times k, so index collisions, replacements and
   backward-shift deletes all occur, with decay and shrinking or growing
   retargets interleaved.  After every operation the two must agree on
   every flow's count and guaranteed count, on size, observed and the
   whole top-k, and the new sketch must pass its self-check. *)
let prop_hh_matches_reference =
  QCheck2.Test.make ~name:"sketch = Flow.Tbl/Int_tbl reference" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Gf_util.Rng.create seed in
      let k = 1 + Gf_util.Rng.int rng 16 in
      let universe = 2 + Gf_util.Rng.int rng ((3 * k) + 8) in
      let t = Heavy_hitter.create ~k and r = Hh_ref.create ~k in
      let agree what a b =
        if a <> b then QCheck2.Test.fail_reportf "seed %d: %s differs" seed what
      in
      for step = 1 to 400 do
        (match Gf_util.Rng.int rng 40 with
        | 0 ->
            Heavy_hitter.decay t;
            Hh_ref.decay r
        | 1 ->
            let k = 1 + Gf_util.Rng.int rng 16 in
            Heavy_hitter.retarget t ~k;
            Hh_ref.retarget r ~k
        | _ ->
            let f = flow (1 + Gf_util.Rng.int rng universe) in
            Heavy_hitter.observe t f;
            Hh_ref.observe r f;
            agree "last_guaranteed" (Heavy_hitter.last_guaranteed t) (Hh_ref.guaranteed r f));
        let k = Hh_ref.k r in
        agree "k" (Heavy_hitter.k t) k;
        agree "size" (Heavy_hitter.size t) (Hh_ref.size r);
        agree "observed" (Heavy_hitter.observed t) (Hh_ref.observed r);
        agree "top" (Heavy_hitter.top t ~n:k) (Hh_ref.top r ~n:k);
        for i = 1 to universe do
          agree "count" (Heavy_hitter.count t (flow i)) (Hh_ref.count r (flow i));
          agree "guaranteed" (Heavy_hitter.guaranteed t (flow i))
            (Hh_ref.guaranteed r (flow i))
        done;
        if not (Heavy_hitter.check_invariants t) then
          QCheck2.Test.fail_reportf "seed %d: invariants broken at step %d" seed step
      done;
      true)

(* [observe] allocates nothing once warm, on every path: bumps inside and
   outside the minimum-count run and replacements of the minimum (a
   skewed 4096-packet stream over 64 flows at k = 16). *)
let test_hh_observe_allocation_free () =
  let t = Heavy_hitter.create ~k:16 in
  let rng = Gf_util.Rng.create 29 in
  let stream =
    Array.init 4096 (fun _ ->
        let r = Gf_util.Rng.int rng 64 in
        flow (if r < 48 then 1 + (r land 7) else 1 + Gf_util.Rng.int rng 64))
  in
  Array.iter (Heavy_hitter.observe t) stream;
  let words =
    Helpers.minor_words (fun () ->
        for i = 0 to 9_999 do
          Heavy_hitter.observe t stream.(i land 4095)
        done)
  in
  Alcotest.(check (float 0.)) "minor words" 0. words;
  Alcotest.(check bool) "invariants" true (Heavy_hitter.check_invariants t)

(* --------------------------- end-to-end ----------------------------- *)

let elephant_workload () =
  Pipebench.make_elephant
    ~combos:512 ~unique_flows:4000 ~elephants:16 ~elephant_share:0.8
    ~packets:16_384
    ~info:(Option.get (Catalog.find "PSC"))
    ~locality:Ruleset.High ~seed:7 ()

(* The tentpole acceptance property in miniature: on an elephant/mice trace
   with constrained hardware capacity, heavy-hitter admission beats the
   admit-all Reject baseline on hardware hit rate. *)
let test_admission_beats_reject () =
  let w = elephant_workload () in
  let run cfg =
    let dp = Datapath.create cfg (Pipebench.pipeline w) in
    Metrics.hw_hit_rate (Datapath.run dp w.Pipebench.trace)
  in
  let hh = run (Datapath.mf_sw_hh ~mf_capacity:16 ()) in
  let reject = run (Datapath.mf_sw ~mf_capacity:16 ()) in
  let lru =
    run (Datapath.with_policy Gf_cache.Evict.Lru (Datapath.mf_sw ~mf_capacity:16 ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "hh (%.3f) > reject (%.3f)" hh reject)
    true (hh > reject);
  Alcotest.(check bool)
    (Printf.sprintf "hh (%.3f) > lru (%.3f)" hh lru)
    true (hh > lru)

(* Walker and batched engine must stay bit-identical under admission: the
   sketch is observed exactly once per packet on every packet path. *)
let test_admission_walker_engine_agree () =
  let w = elephant_workload () in
  let cfg = Datapath.gf_sw_hh ~gf:(Gf_core.Config.v ~tables:2 ~table_capacity:8 ()) () in
  let pipeline = Pipebench.pipeline w in
  let seq = Gf_sim.Parallel.replay ~domains:1 ~cfg pipeline w.Pipebench.trace in
  let eng =
    Gf_engine.Engine.replay ~batch_size:256 ~domains:1 ~cfg pipeline
      (Trace.stream_of_trace w.Pipebench.trace)
  in
  let fp (m : Metrics.t) =
    ( m.Metrics.packets, m.Metrics.hw_hits, m.Metrics.sw_hits,
      m.Metrics.slowpaths, m.Metrics.hw_installs, m.Metrics.hw_deferred,
      m.Metrics.hw_demotions, m.Metrics.hw_evictions, Metrics.miss_causes m )
  in
  Alcotest.(check bool)
    "walker = engine under admission" true
    (fp seq.Gf_sim.Parallel.merged = fp eng.Gf_sim.Parallel.merged)

(* ---------------------------- registry ------------------------------ *)

let suite =
  [
    Alcotest.test_case "sketch exact when small" `Quick test_hh_exact_when_small;
    Alcotest.test_case "sketch replacement inherits error" `Quick
      test_hh_replacement_inherits_error;
    Alcotest.test_case "sketch decay" `Quick test_hh_decay;
    Alcotest.test_case "sketch top order" `Quick test_hh_top_order;
    Alcotest.test_case "policy strings" `Quick test_hh_policy_strings;
    Alcotest.test_case "cuckoo roundtrip" `Quick test_cuckoo_roundtrip;
    Alcotest.test_case "cuckoo expire + flush" `Quick test_cuckoo_expire_and_flush;
    Alcotest.test_case "cuckoo reject at capacity" `Quick
      test_cuckoo_reject_at_capacity;
    Alcotest.test_case "cuckoo lookup allocation-free" `Quick
      test_cuckoo_lookup_allocation_free;
    Alcotest.test_case "cuckoo create cost" `Quick test_cuckoo_create_cost;
    Alcotest.test_case "sketch retarget preserves hot set" `Quick
      test_hh_retarget_preserves_hot_set;
    Alcotest.test_case "sketch observe allocation-free" `Quick
      test_hh_observe_allocation_free;
    Alcotest.test_case "hh admission beats reject + lru" `Slow
      test_admission_beats_reject;
    Alcotest.test_case "walker = engine under admission" `Slow
      test_admission_walker_engine_agree;
  ]

let props =
  [
    prop_hh_bounds; prop_hh_invariants_under_interleaving; prop_hh_matches_reference;
    prop_cuckoo_churn; prop_cuckoo_matches_reference;
  ]
