(* The benchmark's four workloads.  Each is built from the seed alone and
   fed to the simulator through its public API, so the program under test
   receives only generated inputs.  [scale] shrinks every size for the
   smoke run; 1.0 is the measured configuration. *)

module Catalog = Gf_pipelines.Catalog
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Datapath = Gf_sim.Datapath
module Loadtest = Gf_engine.Loadtest
module Pipeline = Gf_pipeline.Pipeline

(* The drifting-skew load test: warm-up and window sizes in offered
   packets, the two reported operating points and the max-rate grid, all
   in packets per second. *)
type load = {
  warmup : int;
  window : int;
  windows : int;
  light : float;
  knee : float;
  grid : float list;
  slo : Loadtest.slo;
}

type runner =
  | Engine  (** [Engine.replay ~domains:1]: batched memo replay *)
  | Walker  (** [Datapath.run]: the per-packet hierarchy walker *)
  | Load of load  (** [Loadtest.run] with the [slo] controller attached *)

type inputs = {
  pipeline : Pipeline.t;
  trace : Trace.t option;  (** materialised traces; [None] for streams *)
  stream : unit -> Trace.stream;  (** a fresh pass over the packets *)
}

type t = {
  name : string;
  runner : runner;
  cfg : Datapath.config;
  build : seed:int -> inputs;
}

let of_trace rs trace =
  { pipeline = Ruleset.pipeline rs; trace = Some trace; stream = (fun () -> Trace.stream_of_trace trace) }

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* The ruleset belongs to the workload's definition; the seed draws the
   flows and the traffic over it.  Rulesets drawn from the seed as well
   widened the seed-to-seed spread of the modelled metrics by about a
   third (caida_high cycles_per_pkt: 7% to 10%). *)
let rules ~combos = Ruleset.build ~combos ~info:(Option.get (Catalog.find "PSC")) ~seed:1 ()

let flows rs ~seed n = Ruleset.sample_flows rs ~seed:(seed lxor 0xF10) ~locality:Ruleset.High ~n

(* Read-only hot path: memo replay of a stable Zipf working set with
   negligible slowpaths.  Bypasses slowpath, LTM-walk and install work. *)
let steady_zipf scale =
  let packets = scaled scale 8_000_000 in
  {
    name = "steady_zipf";
    runner = Engine;
    cfg = Datapath.emc_gf_sw ();
    build =
      (fun ~seed ->
        let rs = rules ~combos:(scaled scale 32_768) in
        let flows = flows rs ~seed (scaled scale 2000) in
        {
          pipeline = Ruleset.pipeline rs;
          trace = None;
          stream =
            (fun () ->
              Trace.steady ~duration:10.0 ~zipf_s:1.2 ~packets ~seed:(seed + 1) ~flows ());
        });
  }

(* The paper's headline setting (Figs. 8-13): every packet pays a full LTM
   walk, misses pay execute, partition, rulegen and install.  Bypasses the
   memo. *)
let caida_high scale =
  {
    name = "caida_high";
    runner = Walker;
    cfg = Datapath.emc_gf_sw ();
    build =
      (fun ~seed ->
        let rs = rules ~combos:(scaled scale 32_768) in
        let flows = flows rs ~seed (scaled scale 25_000) in
        of_trace rs (Trace.generate ~seed:(seed lxor 0x7ACE) ~flows ()));
  }

(* The same cache layers used for writes: a rotating flow window keeps a
   4x128 LTM under install pressure, LRU evictions and memo invalidation. *)
let churn_lru scale =
  let gf =
    Gf_core.Config.v ~tables:4 ~table_capacity:(scaled scale 128) ~policy:Gf_cache.Evict.Lru ()
  in
  {
    name = "churn_lru";
    runner = Engine;
    cfg = Datapath.with_policy Gf_cache.Evict.Lru (Datapath.gf_sw ~gf ());
    build =
      (fun ~seed ->
        let rs = rules ~combos:(scaled scale 32_768) in
        let flows = flows rs ~seed (scaled scale 25_000) in
        of_trace rs
          (Trace.churn ~epochs:30 ~packets_per_epoch:(scaled scale 8192)
             ~active:(scaled scale 2048) ~turnover:0.25 ~seed:(seed lxor 0x7ACE) ~flows ()));
  }

(* Drifting skew under fixed-rate load: the only workload that runs
   heavy-hitter admission, the cuckoo tail, the miss-cause census, the
   controller and the queue model.  Every window is clean at [light];
   [knee] sits past the saturation point of the drifting window. *)
let drift_slo scale =
  let load =
    {
      warmup = scaled scale 60_000;
      window = scaled scale 60_000;
      windows = 4;
      light = 50e3;
      knee = 100e3;
      grid = List.init 13 (fun i -> 40e3 +. (10e3 *. float_of_int i));
      slo =
        {
          Loadtest.slo_p50_us = 50.0;
          slo_p99_us = 500.0;
          slo_p999_us = 100.0;
          slo_drop_rate = 0.001;
          slo_hw_hit_rate = 0.5;
        };
    }
  in
  let packets = load.warmup + (load.windows * load.window) in
  let gf = Gf_core.Config.v ~tables:2 ~table_capacity:(scaled scale 128) () in
  {
    name = "drift_slo";
    runner = Load load;
    cfg = Datapath.gf_sw_hh ~gf ();
    build =
      (fun ~seed ->
        let rs = rules ~combos:(scaled scale 8192) in
        let flows = flows rs ~seed (scaled scale 20_000) in
        let epochs = 6 in
        of_trace rs
          (Trace.drifting_skew ~epochs ~zipf_s:1.2 ~drift:(scaled scale 128)
             ~packets_per_epoch:((packets + epochs - 1) / epochs)
             ~seed:(seed + 1) ~flows ()));
  }

let all ~scale = List.map (fun f -> f scale) [ steady_zipf; caida_high; churn_lru; drift_slo ]

let names = List.map (fun w -> w.name) (all ~scale:1.0)

(* The controller steers by the miss-cause census, which lives on the
   traversal tracer: a telemetry sink that keeps the census but samples no
   spans, series or events. *)
let census_telemetry () =
  Gf_telemetry.Telemetry.create
    ~config:
      {
        Gf_telemetry.Telemetry.default_config with
        sample_every = 0;
        event_sample_every = 0;
        trace_sample_every = 1 lsl 30;
      }
    ()

(* A digest of the generated inputs: the pipeline's size and the first
   packets of a fresh pass (the seed test compares it across seeds). *)
let digest inputs =
  let n = 256 in
  let times = Array.make n 0.0 and flow_ids = Array.make n 0 in
  let flows = Array.make n Gf_flow.Flow.zero in
  let k = Trace.fill (inputs.stream ()) ~times ~flow_ids ~flows ~max:n in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Pipeline.rule_count inputs.pipeline, Array.sub flow_ids 0 k, Array.sub flows 0 k)
          []))
