(* Shared generators and utilities for the test suites. *)

module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Action = Gf_pipeline.Action
module Ofrule = Gf_pipeline.Ofrule
module Oftable = Gf_pipeline.Oftable
module Pipeline = Gf_pipeline.Pipeline
module Executor = Gf_pipeline.Executor
module Metrics = Gf_sim.Metrics
module Histogram = Gf_telemetry.Histogram

let gen_field = QCheck2.Gen.oneofl (Array.to_list Field.all)

(* A random per-field mask biased toward realistic shapes: empty, full, or a
   prefix. *)
let gen_field_mask field =
  let open QCheck2.Gen in
  let width = Field.width field in
  frequency
    [
      (3, pure 0);
      (3, pure (Field.full_mask field));
      (3, map (fun len -> Gf_util.Bitops.prefix_mask ~width len) (1 -- width));
      (1, map (fun m -> m land Field.full_mask field) (0 -- max_int));
    ]

let gen_mask =
  let open QCheck2.Gen in
  let rec build fields acc =
    match fields with
    | [] -> pure acc
    | f :: rest -> gen_field_mask f >>= fun m -> build rest ((f, m) :: acc)
  in
  map Mask.make (build (Array.to_list Field.all) [])

let gen_value field =
  QCheck2.Gen.map
    (fun v -> v land Field.full_mask field)
    QCheck2.Gen.(0 -- max_int)

let gen_flow =
  let open QCheck2.Gen in
  let rec build fields acc =
    match fields with
    | [] -> pure acc
    | f :: rest -> gen_value f >>= fun v -> build rest ((f, v) :: acc)
  in
  map Flow.make (build (Array.to_list Field.all) [])

let gen_fmatch =
  QCheck2.Gen.map2
    (fun pattern mask -> Fmatch.v ~pattern ~mask)
    gen_flow gen_mask

(* Small value pools make overlaps and shared components likely — random
   64-bit values would never collide. *)
let pool_value rng field =
  let bound =
    match field with
    | Field.In_port -> 4
    | Field.Vlan -> 3
    | Field.Eth_type -> 2
    | Field.Ip_proto -> 3
    | Field.Eth_src | Field.Eth_dst -> 6
    | Field.Ip_src | Field.Ip_dst -> 8
    | Field.Tp_src | Field.Tp_dst -> 5
  in
  (* Spread pool values across the field's width so prefixes discriminate. *)
  let v = Gf_util.Rng.int rng bound in
  (v * 0x10493) land Field.full_mask field

let pool_flow rng =
  Flow.make (List.map (fun f -> (f, pool_value rng f)) (Array.to_list Field.all))

(* A random rule over a small field subset with pool values, prefix-biased
   masks and a supplied action. *)
let pool_rule rng ~id ~action =
  let nfields = 1 + Gf_util.Rng.int rng 3 in
  let fields =
    List.init nfields (fun _ -> Gf_util.Rng.pick rng Field.all) |> List.sort_uniq compare
  in
  let fmatch =
    List.fold_left
      (fun fm f ->
        let width = Field.width f in
        let len =
          if Gf_util.Rng.bool rng then width else 1 + Gf_util.Rng.int rng width
        in
        Fmatch.with_prefix fm f ~value:(pool_value rng f) ~len)
      Fmatch.any fields
  in
  Ofrule.v ~id ~priority:(Gf_util.Rng.int rng 8) ~fmatch ~action

(* A small random feed-forward pipeline with pool-valued rules; every goto
   targets a strictly larger table id, so execution always terminates. *)
let random_pipeline rng ~tables ~rules_per_table =
  let table_ids = List.init tables (fun i -> i) in
  let mk_table id =
    Oftable.create ~id ~name:(Printf.sprintf "t%d" id)
      ~match_fields:(Field.Set.of_list (Array.to_list Field.all))
      ~miss:
        (if id = tables - 1 || Gf_util.Rng.bool rng then Action.drop ()
         else Action.goto (id + 1))
  in
  let pipeline = Pipeline.create ~name:"random" ~entry:0 (List.map mk_table table_ids) in
  List.iter
    (fun table_id ->
      for _ = 1 to rules_per_table do
        let action =
          if table_id = tables - 1 || Gf_util.Rng.bernoulli rng 0.4 then
            if Gf_util.Rng.bool rng then Action.output (Gf_util.Rng.int rng 8)
            else Action.drop ()
          else begin
            let next = table_id + 1 + Gf_util.Rng.int rng (tables - table_id - 1) in
            let set_fields =
              if Gf_util.Rng.bernoulli rng 0.3 then
                [ (Gf_util.Rng.pick rng Field.all, pool_value rng (Gf_util.Rng.pick rng Field.all)) ]
              else []
            in
            Action.goto ~set_fields next
          end
        in
        Pipeline.add_rule pipeline ~table:table_id
          (pool_rule rng ~id:(Pipeline.fresh_rule_id pipeline) ~action)
      done)
    table_ids;
  pipeline

(* A flow agreeing with [flow] on every significant bit of [mask], random
   elsewhere — the probe used by cache-consistency properties. *)
let agreeing_flow rng mask flow =
  let fa = Flow.to_array flow in
  let values =
    Array.mapi
      (fun i v ->
        let f = Field.of_index i in
        let m = Mask.get mask f in
        let noise = Gf_util.Rng.int rng (1 lsl min 30 (Field.width f)) in
        (v land m) lor (noise land lnot m land Field.full_mask f))
      fa
  in
  Flow.of_array values

let terminal_testable =
  Alcotest.testable Action.pp_terminal Action.terminal_equal

let flow_testable = Alcotest.testable Flow.pp Flow.equal
let mask_testable = Alcotest.testable Mask.pp Mask.equal
let fmatch_testable = Alcotest.testable Fmatch.pp Fmatch.equal

(* A cache's install outcome. *)
let install_testable =
  Alcotest.testable
    (fun fmt -> function
      | Gf_cache.Install.Installed { fresh; shared; pressure_evicted } ->
          Format.fprintf fmt "Installed { fresh = %d; shared = %d; pressure_evicted = %d }"
            fresh shared pressure_evicted
      | Gf_cache.Install.Rejected { pressure_evicted } ->
          Format.fprintf fmt "Rejected { pressure_evicted = %d }" pressure_evicted)
    ( = )

(* An exact-match or Megaflow install of one entry that evicted
   [pressure_evicted] others to make room. *)
let installed_one pressure_evicted =
  Gf_cache.Install.Installed { fresh = 1; shared = 0; pressure_evicted }

(* The pressure evictions of an install that must not be rejected. *)
let pressure_of = function
  | Gf_cache.Install.Installed { pressure_evicted; _ } -> pressure_evicted
  | Gf_cache.Install.Rejected _ -> Alcotest.fail "install rejected"

(* Argument checks are [invalid_arg], not [assert]: they must survive
   [-noassert] builds. *)
let raises_invalid name f =
  Alcotest.(check bool) name true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

(* Minor words [f ()] allocates, net of the cost of the [Gc.minor_words]
   reads themselves, measured back to back. *)
let minor_words f =
  let r0 = Gc.minor_words () in
  let r1 = Gc.minor_words () in
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before -. (r1 -. r0)

(* [f ~now ~flow_id flow] on every packet of [trace], in trace order. *)
let iter_packets f (trace : Gf_workload.Trace.t) =
  Array.iteri
    (fun i now ->
      let flow_id = trace.flow_ids.(i) in
      f ~now ~flow_id trace.flows.(flow_id))
    trace.times

(* [cfg] with its EMC level's capacity set to [capacity]. *)
let with_emc_capacity capacity (cfg : Gf_sim.Datapath.config) =
  {
    cfg with
    Gf_sim.Datapath.levels =
      List.map
        (function
          | Gf_sim.Cache_level.Emc e -> Gf_sim.Cache_level.Emc { e with capacity }
          | s -> s)
        cfg.Gf_sim.Datapath.levels;
  }

(* Strong fingerprint: every merged counter that must agree between the
   engine and sequential sharded replay — aggregates, the full per-level
   breakdown, occupancy peaks, and the exact latency sum (compared as
   bits: the merge order is fixed, so even float addition order must
   coincide). *)
let strong_fingerprint (m : Metrics.t) =
  let f x = Int64.to_string (Int64.bits_of_float x) in
  String.concat ","
    ([
       string_of_int m.Metrics.packets; string_of_int m.Metrics.hw_hits;
       string_of_int m.Metrics.sw_hits; string_of_int m.Metrics.slowpaths;
       string_of_int m.Metrics.drops; string_of_int m.Metrics.hw_installs;
       string_of_int m.Metrics.hw_shared; string_of_int m.Metrics.hw_rejected;
       string_of_int m.Metrics.hw_evictions;
       string_of_int m.Metrics.hw_pressure_evictions;
       string_of_int m.Metrics.cycles_userspace;
       string_of_int m.Metrics.cycles_partition;
       string_of_int m.Metrics.cycles_rulegen;
       string_of_int m.Metrics.cycles_sw_search;
       string_of_int m.Metrics.hw_entries_peak;
       string_of_int m.Metrics.hw_entries_final;
       string_of_int (Gf_util.Stats.Acc.count m.Metrics.latency);
       f (Gf_util.Stats.Acc.total m.Metrics.latency);
       string_of_int (Histogram.count m.Metrics.latency_hist);
       f (Histogram.sum m.Metrics.latency_hist);
     ]
    @ List.concat_map
        (fun (l : Metrics.level) ->
          [
            l.Metrics.level_name; string_of_int l.Metrics.hits;
            string_of_int l.Metrics.misses;
            String.concat "/"
              (Array.to_list (Array.map string_of_int l.Metrics.miss_causes));
            string_of_int l.Metrics.installs;
            string_of_int l.Metrics.shared; string_of_int l.Metrics.rejected;
            string_of_int l.Metrics.evictions;
            string_of_int l.Metrics.pressure_evictions;
            string_of_int l.Metrics.deferred;
            string_of_int l.Metrics.demotions;
            string_of_int l.Metrics.work; f (Histogram.sum l.Metrics.latency_hist);
            string_of_int l.Metrics.occupancy_peak;
            string_of_int l.Metrics.occupancy_final;
            string_of_int (Histogram.count l.Metrics.latency_hist);
          ])
        (Metrics.levels m))
