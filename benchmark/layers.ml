(* The per-layer metrics of a traced run.  Spans around the benchmark's
   own calls give the simulator's per-outcome costs ([Replay.tracer]);
   the component costs are timed here, after the run, by calling each
   library's public functions on the run's own packets, slowpath flows
   and final cache state. *)

module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Cache_level = Gf_sim.Cache_level
module Pipeline = Gf_pipeline.Pipeline
module Executor = Gf_pipeline.Executor
module Traversal = Gf_pipeline.Traversal
module Gigaflow = Gf_core.Gigaflow
module Partitioner = Gf_core.Partitioner
module Heavy_hitter = Gf_offload.Heavy_hitter
module Histogram = Gf_telemetry.Histogram
module W = Workloads
open Report

let gf_config (cfg : Datapath.config) =
  Option.value ~default:Gf_core.Config.default
    (List.find_map
       (function Cache_level.Gf_ltm { gf; _ } -> Some gf | _ -> None)
       cfg.Datapath.levels)

(* Metric names by the level's role: the software tier's deepest level is
   "sw" whichever flavour (wildcard Megaflow or cuckoo) the preset uses. *)
let role name = if String.starts_with ~prefix:"sw" name then "sw" else name

type components = {
  lookup_ns : (string * float) list;  (** level name -> ns per lookup *)
  execute_ns : float;
  steps : float;  (** pipeline lookups per slowpath traversal *)
  partition_ns : float;
  rulegen_ns : float;
  install_ns : float;
  observe_ns : float;
  record_ns : float;
  occupancy_ns : float;  (** one occupancy read of every level *)
}

(* Installs need a fresh LTM for every pass (a second pass would only hit
   shared entries), so this times passes one by one. *)
let install_ns gf travs =
  let n = Array.length travs in
  if n = 0 then 0.0
  else begin
    let spent = ref 0 and calls = ref 0 in
    while !spent < 20_000_000 do
      let g = Gigaflow.create gf in
      let t0 = Spans.now_ns () in
      Array.iter (fun t -> ignore (Gigaflow.install_traversal g ~now:0.0 ~version:0 t)) travs;
      spent := !spent + (Spans.now_ns () - t0);
      calls := !calls + n
    done;
    float_of_int !spent /. float_of_int !calls
  end

let components (w : W.t) dp (obs : Replay.observed) pipeline =
  let memo = match w.W.runner with W.Walker -> false | W.Engine | W.Load _ -> true in
  let now = obs.Replay.last_time in
  let sample = Array.init (min obs.Replay.count Replay.sample_cap) Fun.id in
  let levels = Datapath.levels dp in
  let lookup_ns =
    List.map
      (fun lvl ->
        let f =
          if memo then fun i ->
            ignore
              (Cache_level.lookup_memo lvl ~now ~flow_id:obs.Replay.sample_ids.(i)
                 obs.Replay.sample_flows.(i))
          else fun i -> ignore (Cache_level.lookup lvl ~now obs.Replay.sample_flows.(i))
        in
        (Cache_level.name lvl, Spans.ns_per_item sample f))
      levels
  in
  let occupancy_ns = Spans.ns_per_item [| () |] (fun () -> List.iter (fun l -> ignore (Cache_level.occupancy l)) levels) in
  let slow = Array.of_list (List.rev obs.Replay.slow) in
  let pl = Pipeline.copy pipeline in
  let execute_ns = Spans.ns_per_item slow (fun f -> ignore (Executor.execute pl f)) in
  let travs =
    Array.of_list
      (List.filter_map (fun f -> Result.to_option (Executor.execute pl f)) (Array.to_list slow))
  in
  let gf = gf_config w.W.cfg in
  let cut t = Partitioner.partition gf.Gf_core.Config.scheme ~max_segments:gf.Gf_core.Config.tables t in
  let parts = Array.map (fun t -> (t, cut t)) travs in
  let k =
    match w.W.cfg.Datapath.admission with
    | Heavy_hitter.Heavy_hitter { k; _ } -> k
    | Heavy_hitter.Admit_all -> Heavy_hitter.default_k
  in
  let sketch = Heavy_hitter.create ~k in
  let hist = Histogram.create () in
  let lat = Array.sub obs.Replay.sample_lat 0 (Array.length sample) in
  {
    lookup_ns;
    execute_ns;
    steps =
      (if travs = [||] then 0.0
       else
         float_of_int (Array.fold_left (fun a t -> a + Traversal.length t) 0 travs)
         /. float_of_int (Array.length travs));
    partition_ns = Spans.ns_per_item travs (fun t -> ignore (cut t));
    rulegen_ns =
      Spans.ns_per_item parts (fun (t, s) ->
          ignore (Gf_core.Rulegen.rules_of_partition ~version:0 t s));
    install_ns = install_ns gf travs;
    observe_ns =
      Spans.ns_per_item sample (fun i -> Heavy_hitter.observe sketch obs.Replay.sample_flows.(i));
    record_ns = Spans.ns_per_item lat (Histogram.record hist);
    occupancy_ns;
  }

(* [tr] aggregates [reps] traced replays; [m] is one replay's counters
   (they are identical across replays). *)
let metrics (w : W.t) ~build_s ~overhead ~reps ~actions (tr : Replay.tracer) (m : Metrics.t) c =
  let layer = one Layer in
  let count ?(kind = Layer) name better v = one ~modelled:true kind name "count" better (float_of_int v) in
  let packets = float_of_int (max 1 m.Metrics.packets) in
  let per_pkt v = float_of_int v /. packets in
  let sim ?(kind = Layer) name (st : Spans.stat) =
    [
      one kind (name ^ ".ns_per_pkt") "ns" Lower (Spans.ns_per st);
      one kind (name ^ ".p99_ns") "ns" Lower (Spans.p99 st);
      one kind (name ^ ".alloc_words") "words" Lower (Spans.words_per st);
    ]
  in
  let level (l : Metrics.level) =
    let r = "cache." ^ role l.Metrics.level_name in
    let kind = if role l.Metrics.level_name = "emc" then Extra else Layer in
    let cnt name better v = count ~kind (r ^ "." ^ name) better v in
    [
      one kind (r ^ ".lookup_ns") "ns" Lower
        (Option.value ~default:nan (List.assoc_opt l.Metrics.level_name c.lookup_ns));
      cnt "hits" Higher l.Metrics.hits;
      cnt "misses" Lower l.Metrics.misses;
      cnt "installs" Lower l.Metrics.installs;
      cnt "pressure_evictions" Lower l.Metrics.pressure_evictions;
      cnt "occupancy_peak" Lower l.Metrics.occupancy_peak;
      one ~modelled:true kind (r ^ ".work_per_lookup") "units" Lower
        (float_of_int l.Metrics.work /. float_of_int (max 1 (l.Metrics.hits + l.Metrics.misses)));
    ]
  in
  let gf =
    List.find_opt (fun (l : Metrics.level) -> l.Metrics.level_name = "gf") m.Metrics.levels
  in
  let gf_count f = match gf with Some l -> f l | None -> 0 in
  let sim_ns = tr.Replay.hw.Spans.ns + tr.Replay.sw.Spans.ns + tr.Replay.slowpath.Spans.ns in
  let self_ns = tr.Replay.loop_ns - sim_ns - tr.Replay.fill.Spans.ns - tr.Replay.hook.Spans.ns in
  (* The cost model: each component's ns/op times this run's operation
     counts, against the time the datapath calls took. *)
  let explained =
    List.fold_left
      (fun acc (l : Metrics.level) ->
        acc
        +. float_of_int (l.Metrics.hits + l.Metrics.misses)
           *. Option.value ~default:0.0 (List.assoc_opt l.Metrics.level_name c.lookup_ns))
      0.0 m.Metrics.levels
    +. (float_of_int m.Metrics.slowpaths *. c.execute_ns)
    +. (float_of_int (m.Metrics.slowpaths - m.Metrics.hw_deferred) *. c.install_ns)
    +. (packets *. c.record_ns)
    +. (match w.W.runner with W.Walker -> packets *. c.occupancy_ns | W.Engine | W.Load _ -> 0.0)
    +. (match w.W.cfg.Datapath.admission with
       | Heavy_hitter.Heavy_hitter _ -> packets *. c.observe_ns
       | Heavy_hitter.Admit_all -> 0.0)
  in
  let spans = tr.Replay.hw.Spans.n + tr.Replay.sw.Spans.n + tr.Replay.slowpath.Spans.n in
  let measured =
    (float_of_int sim_ns -. (float_of_int spans *. Spans.empty_span_ns ())) /. float_of_int reps
  in
  let loop_packets = float_of_int (max 1 tr.Replay.packets) in
  [ layer "workload.build_s" "s" Lower build_s;
    layer "workload.fill_ns_per_pkt" "ns" Lower
      (float_of_int tr.Replay.fill.Spans.ns /. float_of_int (max 1 tr.Replay.filled)) ]
  @ sim "sim.hw_hit" tr.Replay.hw
  @ sim ~kind:Extra "sim.sw_hit" tr.Replay.sw
  @ sim "sim.slowpath" tr.Replay.slowpath
  @ [
      count "sim.hw_hits" Higher m.Metrics.hw_hits;
      count "sim.sw_hits" Higher m.Metrics.sw_hits;
      count "sim.slowpaths" Lower m.Metrics.slowpaths;
    ]
  @ List.concat_map level m.Metrics.levels
  @ [
      layer "core.install_ns" "ns" Lower c.install_ns;
      layer "core.partition_ns" "ns" Lower c.partition_ns;
      layer "core.rulegen_ns" "ns" Lower c.rulegen_ns;
      count "core.shared" Higher (gf_count (fun l -> l.Metrics.shared));
      count "core.rejected" Lower (gf_count (fun l -> l.Metrics.rejected));
      one ~modelled:true Layer "core.partition_cycles_per_pkt" "cycles" Lower
        (per_pkt m.Metrics.cycles_partition);
      one ~modelled:true Layer "core.rulegen_cycles_per_pkt" "cycles" Lower
        (per_pkt m.Metrics.cycles_rulegen);
      layer "pipeline.execute_ns" "ns" Lower c.execute_ns;
      one ~modelled:true Layer "pipeline.steps_per_slowpath" "steps" Lower c.steps;
      one ~modelled:true Layer "pipeline.userspace_cycles_per_pkt" "cycles" Lower
        (per_pkt m.Metrics.cycles_userspace);
      one ~modelled:true Extra "classifier.sw_search_cycles_per_pkt" "cycles" Lower
        (per_pkt m.Metrics.cycles_sw_search);
      layer "offload.observe_ns" "ns" Lower c.observe_ns;
      count "offload.deferred" Lower m.Metrics.hw_deferred;
      count "offload.demotions" Lower m.Metrics.hw_demotions;
      layer "telemetry.histogram_record_ns" "ns" Lower c.record_ns;
      one Extra "cache.occupancy_scan_ns" "ns" Lower c.occupancy_ns;
      layer "replay.self_ns_per_pkt" "ns" Lower (float_of_int self_ns /. loop_packets);
      layer "trace.overhead_frac" "ratio" Lower overhead;
      layer "trace.residual_frac" "ratio" Lower (1.0 -. (explained /. measured));
    ]
  @
  match w.W.runner with
  | W.Load _ ->
      [
        one Extra "control.on_window_us" "us" Lower (Spans.ns_per tr.Replay.hook /. 1e3);
        count ~kind:Extra "control.actions" Lower actions;
      ]
  | W.Engine | W.Walker -> []
