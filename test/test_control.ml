(* Tests for gigaflow.control (the adaptive SLO controller) and the
   loadtest harness hooks it rides on: window truncation semantics,
   controller observation-transparency, and the closed loop actually
   rescuing a drifting-skew run the static configuration fails. *)

module Controller = Gf_control.Controller
module Loadtest = Gf_engine.Loadtest
module Datapath = Gf_sim.Datapath
module Cache_level = Gf_sim.Cache_level
module Evict = Gf_cache.Evict
module Heavy_hitter = Gf_offload.Heavy_hitter
module Telemetry = Gf_telemetry.Telemetry
module Pipebench = Gf_workload.Pipebench
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Catalog = Gf_pipelines.Catalog
module Json = Gf_util.Json

let workload ?(flows = 4000) ?(combos = 2048) ?(seed = 7) () =
  Pipebench.make ~combos ~unique_flows:flows
    ~info:(Option.get (Catalog.find "PSC"))
    ~locality:Ruleset.High ~seed ()

let hh_cfg () =
  Datapath.gf_sw_hh ~gf:(Gf_core.Config.v ~tables:2 ~table_capacity:128 ()) ()

(* ------------------------------ spec -------------------------------- *)

let test_spec_parsing () =
  (match Controller.spec_of_string "slo" with
  | Ok s -> Alcotest.(check bool) "defaults" true (s = Controller.default_spec)
  | Error e -> Alcotest.failf "slo rejected: %s" e);
  (match Controller.spec_of_string "slo,min-threshold=2,max-actions=1" with
  | Ok s ->
      Alcotest.(check int) "min-threshold" 2 s.Controller.min_threshold;
      Alcotest.(check int) "max-actions" 1 s.Controller.max_actions;
      Alcotest.(check int) "untouched max-k" Controller.default_spec.Controller.max_k
        s.Controller.max_k
  | Error e -> Alcotest.failf "override rejected: %s" e);
  (* Round-trip through the printer. *)
  (match Controller.spec_of_string (Controller.spec_to_string Controller.default_spec) with
  | Ok s -> Alcotest.(check bool) "printer round-trips" true (s = Controller.default_spec)
  | Error e -> Alcotest.failf "printed spec rejected: %s" e);
  List.iter
    (fun s ->
      match Controller.spec_of_string s with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" s
      | Error _ -> ())
    [ ""; "pid"; "slo,max-k"; "slo,max-k=x"; "slo,max-k=0"; "slo,cooldown=-1" ]

(* ------------------------- datapath knobs ---------------------------- *)

let test_knobs_admission_retarget () =
  let w = workload () in
  let dp =
    Datapath.create
      (Datapath.with_admission
         (Heavy_hitter.Heavy_hitter { k = 64; threshold = 4 })
         (hh_cfg ()))
      (Pipebench.pipeline w)
  in
  (* Warm the sketch with a skewed stream — flow j seen (32 - j) times —
     then retarget: the learned counts must survive with their order. *)
  let now = ref 0.0 in
  for j = 0 to 31 do
    for _ = 1 to 32 - j do
      now := !now +. 1e-6;
      ignore (Datapath.process dp ~now:!now w.Pipebench.flows.(j))
    done
  done;
  let hh = Option.get (Datapath.heavy_hitter dp) in
  let top_before = Heavy_hitter.top hh ~n:4 in
  Datapath.set_admission dp (Heavy_hitter.Heavy_hitter { k = 16; threshold = 2 });
  let hh' = Option.get (Datapath.heavy_hitter dp) in
  Alcotest.(check bool) "same sketch object" true (hh == hh');
  Alcotest.(check int) "retargeted k" 16 (Heavy_hitter.k hh');
  Alcotest.(check bool) "top entries survive" true
    (Heavy_hitter.top hh' ~n:4 = top_before);
  (match (Datapath.config dp).Datapath.admission with
  | Heavy_hitter.Heavy_hitter { k = 16; threshold = 2 } -> ()
  | _ -> Alcotest.fail "config does not reflect the actuation");
  (* Admit_all drops the sketch; re-enabling builds a fresh one. *)
  Datapath.set_admission dp Heavy_hitter.Admit_all;
  Alcotest.(check bool) "sketch gone" true (Datapath.heavy_hitter dp = None);
  Datapath.set_admission dp (Heavy_hitter.Heavy_hitter { k = 8; threshold = 1 });
  Alcotest.(check bool) "sketch rebuilt" true (Datapath.heavy_hitter dp <> None)

let test_knobs_evict_and_capacity () =
  let w = workload () in
  let dp = Datapath.create (hh_cfg ()) (Pipebench.pipeline w) in
  let gf = List.hd (Datapath.levels dp) in
  Alcotest.(check string) "walk head is the NIC" "gf" (Cache_level.name gf);
  Alcotest.(check bool) "starts rejecting" true
    (Cache_level.evict_policy gf = Evict.Reject);
  Datapath.set_evict_policy dp ~level:"gf" Evict.Lru;
  Alcotest.(check bool) "policy flipped" true
    (Cache_level.evict_policy gf = Evict.Lru);
  (* The live config must stay truthful about the actuation. *)
  let spec_policies =
    List.map Cache_level.spec_evict (Datapath.config dp).Datapath.levels
  in
  Alcotest.(check bool) "config reflects lru" true
    (List.mem Evict.Lru spec_policies);
  (match Datapath.set_evict_policy dp ~level:"nope" Evict.Lru with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown level accepted");
  match Datapath.set_level_capacity dp ~level:"sw-ck" 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "capacity 0 accepted"

(* --------------------------- truncation ------------------------------ *)

let run_loadtest ?controller ?telemetry ~packets ~warmup ~window ~windows w =
  let stream =
    Trace.steady ~zipf_s:1.1 ~packets ~seed:9 ~flows:w.Pipebench.flows ()
  in
  Loadtest.run ?controller ?telemetry ~queue_budget_us:500.0 ~warmup ~window
    ~windows ~rate:1e5 ~slo:Loadtest.default_slo (hh_cfg ())
    (Pipebench.pipeline w) stream

let test_truncated_window_excluded () =
  let w = workload () in
  (* Stream dies half way through window 1 of 3. *)
  let r =
    run_loadtest ~packets:(2000 + 3000 + 1500) ~warmup:2000 ~window:3000
      ~windows:3 w
  in
  (match r.Loadtest.windows with
  | [ w0; w1 ] ->
      Alcotest.(check bool) "w0 complete" false w0.Loadtest.w_truncated;
      Alcotest.(check int) "w0 offered" 3000 w0.Loadtest.w_offered;
      Alcotest.(check bool) "w1 truncated" true w1.Loadtest.w_truncated;
      Alcotest.(check int) "w1 offered" 1500 w1.Loadtest.w_offered;
      (* The gate ignores the truncated window entirely. *)
      Alcotest.(check bool) "pass = w0's verdict" (w0.Loadtest.w_violations = [])
        r.Loadtest.pass
  | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
  (* A stream that dies during warmup measures nothing: never pass. *)
  let r0 = run_loadtest ~packets:1000 ~warmup:2000 ~window:3000 ~windows:3 w in
  Alcotest.(check int) "no windows" 0 (List.length r0.Loadtest.windows);
  Alcotest.(check bool) "no complete window -> fail" false r0.Loadtest.pass;
  (* Exactly consumed budget: the final window is complete, not truncated. *)
  let rx = run_loadtest ~packets:(2000 + 2 * 3000) ~warmup:2000 ~window:3000
      ~windows:2 w
  in
  Alcotest.(check bool) "final window complete" true
    (List.for_all (fun wr -> not wr.Loadtest.w_truncated) rx.Loadtest.windows);
  (* The summary JSON carries the truncation tally. *)
  let r = run_loadtest ~packets:(2000 + 3000 + 1500) ~warmup:2000 ~window:3000
      ~windows:3 w
  in
  let buf = Buffer.create 512 in
  let tmp = Filename.temp_file "lt" ".jsonl" in
  let oc = open_out tmp in
  Loadtest.write_jsonl oc r;
  close_out oc;
  let ic = open_in tmp in
  (try
     while true do
       Buffer.add_string buf (input_line ic);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> close_in ic);
  Sys.remove tmp;
  let has_tally =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.exists (fun l ->
           match Json.of_string l with
           | Ok j ->
               Json.member "type" j = Some (Json.Str "loadtest_summary")
               && Json.member "truncated_windows" j = Some (Json.Int 1)
           | Error _ -> false)
  in
  Alcotest.(check bool) "summary counts truncated windows" true has_tally

(* ------------------------- transparency ------------------------------ *)

let test_controller_hook_transparent () =
  let w = workload () in
  let observed = ref [] in
  let spy _dp (wr : Loadtest.window) =
    observed := wr.Loadtest.w_index :: !observed
  in
  let packets = 2000 + (3 * 3000) in
  let base = run_loadtest ~packets ~warmup:2000 ~window:3000 ~windows:3 w in
  let spied =
    run_loadtest ~controller:spy ~packets ~warmup:2000 ~window:3000 ~windows:3 w
  in
  Alcotest.(check bool) "report bit-identical under a passive hook" true
    (base = spied);
  Alcotest.(check (list int)) "fires at warmup + every window close"
    [ -1; 0; 1; 2 ] (List.rev !observed);
  (* A Controller that observes clean windows takes no actions and stays
     transparent too. *)
  let c = Controller.create () in
  let driven =
    run_loadtest ~controller:(Controller.on_window c) ~packets ~warmup:2000
      ~window:3000 ~windows:3 w
  in
  if base.Loadtest.pass then begin
    Alcotest.(check bool) "no actions on clean windows" true
      (Controller.actions c = []);
    Alcotest.(check bool) "report unchanged" true
      (base.Loadtest.windows = driven.Loadtest.windows)
  end

(* --------------------------- closed loop ----------------------------- *)

(* The acceptance criterion in miniature: under drifting skew the frozen
   Reject NIC decays below the SLO and the static run fails; the
   controller spots the blown warmup, flips the NIC to LRU, and every
   measured window passes.  Mirrors `gigaflow-sim loadtest --trace drift
   --controller slo` (see EXPERIMENTS.md). *)
let drift_loadtest ?controller ?telemetry w =
  let warmup = 20_000 and window = 20_000 and windows = 3 in
  let packets = warmup + (windows * window) in
  let stream =
    Trace.stream_of_trace
      (Trace.drifting_skew ~epochs:6 ~zipf_s:1.2 ~drift:128
         ~packets_per_epoch:((packets + 5) / 6) ~seed:43
         ~flows:w.Pipebench.flows ())
  in
  Loadtest.run ?controller ?telemetry ~queue_budget_us:500.0 ~warmup ~window
    ~windows ~rate:1e5
    ~slo:{ Loadtest.default_slo with Loadtest.slo_p50_us = 50.0 }
    (hh_cfg ()) (Pipebench.pipeline w) stream

let test_controller_rescues_drifting_skew () =
  let w = workload ~flows:20_000 ~combos:8192 ~seed:42 () in
  let static = drift_loadtest w in
  Alcotest.(check bool) "static run fails the gate" false static.Loadtest.pass;
  let c = Controller.create () in
  let driven = drift_loadtest ~controller:(Controller.on_window c) w in
  Alcotest.(check bool) "controlled run passes the gate" true
    driven.Loadtest.pass;
  let acts = Controller.actions c in
  Alcotest.(check bool) "took at least one action" true (acts <> []);
  (* Bounded actuation: never more than the per-window budget for any
     window index. *)
  let by_window = Hashtbl.create 8 in
  List.iter
    (fun (a : Controller.action) ->
      let n =
        1 + Option.value ~default:0 (Hashtbl.find_opt by_window a.Controller.act_window)
      in
      Hashtbl.replace by_window a.Controller.act_window n)
    acts;
  Hashtbl.iter
    (fun wi n ->
      Alcotest.(check bool)
        (Printf.sprintf "window %d within budget" wi)
        true
        (n <= Controller.default_spec.Controller.max_actions))
    by_window;
  (* Every action serialises to a well-formed controller_action record. *)
  List.iter
    (fun a ->
      let j = Controller.action_json a in
      Alcotest.(check bool) "tagged" true
        (Json.member "type" j = Some (Json.Str "controller_action"));
      match Json.of_string (Json.to_string j) with
      | Ok j' -> Alcotest.(check bool) "round-trips" true (j = j')
      | Error e -> Alcotest.failf "action JSON invalid: %s" e)
    acts

(* Determinism: the controlled run is a pure function of its inputs —
   two identical runs produce identical reports and identical action
   logs, and attaching a telemetry handle does not change either. *)
let test_controlled_run_deterministic () =
  let w = workload ~flows:20_000 ~combos:8192 ~seed:42 () in
  let go ?telemetry () =
    let c = Controller.create () in
    let r = drift_loadtest ~controller:(Controller.on_window c) ?telemetry w in
    (r.Loadtest.windows, r.Loadtest.pass, Controller.actions c)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical reports and action logs" true (a = b);
  (* The controller reads its miss causes from [Metrics], so attaching a
     telemetry handle with the tracer on changes nothing it decides. *)
  let tel =
    Telemetry.create
      ~config:
        {
          Telemetry.default_config with
          sample_every = 0;
          event_sample_every = 0;
          trace_sample_every = 1 lsl 30;
        }
      ()
  in
  let _, _, acts = a in
  Alcotest.(check bool) "took actions" true (acts <> []);
  Alcotest.(check bool) "identical with a telemetry handle" true
    (go ~telemetry:tel () = a)

let suite =
  [
    Alcotest.test_case "controller spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "admission retarget knob" `Quick
      test_knobs_admission_retarget;
    Alcotest.test_case "evict + capacity knobs" `Quick
      test_knobs_evict_and_capacity;
    Alcotest.test_case "truncated window excluded from gate" `Quick
      test_truncated_window_excluded;
    Alcotest.test_case "controller hook transparent" `Slow
      test_controller_hook_transparent;
    Alcotest.test_case "controller rescues drifting skew" `Slow
      test_controller_rescues_drifting_skew;
    Alcotest.test_case "controlled run deterministic" `Slow
      test_controlled_run_deterministic;
  ]
