(* Telemetry facade: one handle bundling the metric registry, the event
   flight recorder and the time-series sampler, with a single merge for
   parallel shard aggregation.

   The hot-path contract: instrumented code holds a [Telemetry.t option]
   and pattern-matches at every emission site — the [None] branch is a
   no-op that performs no allocation and no calls, so disabled telemetry
   leaves the de-allocated datapath hot path untouched. *)

module Json = Gf_util.Json

type config = {
  sample_every : int;  (* time-series cadence in packets; 0 disables *)
  event_capacity : int;  (* flight-recorder ring size *)
  event_sample_every : int;  (* record every Nth event; 0 disables *)
  trace_sample_every : int;  (* traversal-tracer 1-in-N cadence; 0 disables *)
}

let default_config =
  {
    sample_every = 10_000;
    event_capacity = 4096;
    event_sample_every = 1;
    trace_sample_every = 0;
  }

type t = {
  config : config;
  registry : Registry.t;
  recorder : Recorder.t option;
  series : Series.t option;
  (* The traversal tracer needs level names only the datapath knows, so
     the datapath attaches it at creation when [trace_sample_every > 0]
     (mirroring [Gigaflow.attach_telemetry]); [merge] then aggregates
     shard tracers like every other component. *)
  mutable tracer : Tracer.t option;
}

let create ?(config = default_config) () =
  {
    config;
    registry = Registry.create ();
    recorder =
      (if config.event_sample_every > 0 then
         Some
           (Recorder.create ~capacity:config.event_capacity
              ~sample_every:config.event_sample_every ())
       else None);
    series =
      (if config.sample_every > 0 then Some (Series.create ~every:config.sample_every)
       else None);
    tracer = None;
  }

let config t = t.config
let registry t = t.registry
let recorder t = t.recorder
let tracer t = t.tracer
let set_tracer t tr = t.tracer <- Some tr

let event t ~packet ~time ~level ~latency_us ~count kind =
  match t.recorder with
  | Some r -> Recorder.record r ~packet ~time ~level ~latency_us ~count kind
  | None -> ()

let events t = match t.recorder with Some r -> Recorder.drain r | None -> []
let samples t = match t.series with Some s -> Series.samples s | None -> []

let sample_due t ~packets =
  match t.series with Some s -> Series.due s ~packets | None -> false

let push_sample t sample =
  match t.series with Some s -> Series.push s sample | None -> ()

(* Merge a shard's telemetry: registries merge by (name, labels), recorder
   rings concatenate (newest events win), series interleave by packet
   index.  Configs must agree — shards are created from one config. *)
let merge ~into src =
  Registry.merge ~into:into.registry src.registry;
  (match (into.recorder, src.recorder) with
  | Some a, Some b -> Recorder.merge ~into:a b
  | _ -> ());
  (match (into.series, src.series) with
  | Some a, Some b -> Series.merge ~into:a b
  | _ -> ());
  match (into.tracer, src.tracer) with
  | Some a, Some b -> Tracer.merge ~into:a b
  | None, Some b ->
      (* The merge target (a fresh handle) has no datapath, hence no
         tracer; adopt the first shard's and fold the rest in. *)
      into.tracer <- Some b
  | _ -> ()

(* ------------------------------ output ------------------------------ *)

let level_sample_json (l : Series.level_sample) =
  Json.Obj
    [
      ("level", Json.Str l.Series.ls_level);
      ("tier", Json.Str l.Series.ls_tier);
      ("hits", Json.Int l.Series.ls_hits);
      ("misses", Json.Int l.Series.ls_misses);
      ("hit_rate", Json.Float l.Series.ls_hit_rate);
      ("occupancy", Json.Int l.Series.ls_occupancy);
      ("p50_us", Json.Float l.Series.ls_p50_us);
      ("p99_us", Json.Float l.Series.ls_p99_us);
    ]

let sample_json (s : Series.sample) =
  Schema.line Schema.Sample
    [
      ("packet", Json.Int s.Series.s_packet);
      ("time", Json.Float s.Series.s_time);
      ("hw_hits", Json.Int s.Series.s_hw_hits);
      ("sw_hits", Json.Int s.Series.s_sw_hits);
      ("slowpaths", Json.Int s.Series.s_slowpaths);
      ("hw_hit_rate", Json.Float s.Series.s_hw_hit_rate);
      ("mean_us", Json.Float s.Series.s_mean_us);
      ("p50_us", Json.Float s.Series.s_p50_us);
      ("p90_us", Json.Float s.Series.s_p90_us);
      ("p99_us", Json.Float s.Series.s_p99_us);
      ("p999_us", Json.Float s.Series.s_p999_us);
      ("levels", Json.List (List.map level_sample_json s.Series.s_levels));
    ]

let event_json (e : Recorder.event) =
  Schema.line Schema.Event
    [
      ("seq", Json.Int e.Recorder.seq);
      ("packet", Json.Int e.Recorder.packet);
      ("time", Json.Float e.Recorder.time);
      ("level", Json.Str e.Recorder.level);
      ("kind", Json.Str (Recorder.kind_name e.Recorder.kind));
      ("latency_us", Json.Float e.Recorder.latency_us);
      ("count", Json.Int e.Recorder.count);
    ]

(* The full JSONL stream: one meta line, every time-series sample, then
   every retained flight-recorder event.  [meta] lets the caller prepend
   run parameters (workload, hierarchy, seed). *)
let write_jsonl ?(meta = []) oc t =
  let recorder_meta =
    match t.recorder with
    | Some r ->
        [
          ("events_seen", Json.Int (Recorder.seen r));
          ("events_recorded", Json.Int (Recorder.recorded r));
          ("events_dropped", Json.Int (Recorder.dropped r));
          ("event_sample_every", Json.Int (Recorder.sample_every r));
        ]
    | None -> []
  in
  let samples = samples t in
  Schema.write_line oc
    (Schema.line Schema.Meta
       (meta @ (("samples", Json.Int (List.length samples)) :: recorder_meta)));
  List.iter (fun s -> Schema.write_line oc (sample_json s)) samples;
  List.iter (fun e -> Schema.write_line oc (event_json e)) (events t)

let prometheus t = Export.prometheus t.registry
