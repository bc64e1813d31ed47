(** Telemetry facade: one handle bundling the metric {!Registry}, the event
    flight {!Recorder} and the time-series {!Series} sampler, with a single
    {!merge} for parallel shard aggregation.

    Hot-path contract: instrumented code holds a [Telemetry.t option] and
    pattern-matches at each emission site — the [None] branch is a no-op
    performing no allocation and no calls, so disabled telemetry leaves the
    de-allocated datapath hot path untouched. *)

type config = {
  sample_every : int;  (** time-series cadence in packets; 0 disables *)
  event_capacity : int;  (** flight-recorder ring size *)
  event_sample_every : int;  (** record every Nth event; 0 disables *)
  trace_sample_every : int;
      (** traversal-tracer 1-in-N cadence; 0 disables tracing *)
}

val default_config : config
(** [{ sample_every = 10_000; event_capacity = 4096;
       event_sample_every = 1; trace_sample_every = 0 }] *)

type t

val create : ?config:config -> unit -> t

val config : t -> config
val registry : t -> Registry.t
val recorder : t -> Recorder.t option

val tracer : t -> Tracer.t option

val set_tracer : t -> Tracer.t -> unit
(** Attach the traversal tracer.  Called by the datapath at creation
    (it alone knows the level names) when [trace_sample_every > 0];
    last attachment wins. *)

val event :
  t ->
  packet:int ->
  time:float ->
  level:string ->
  latency_us:float ->
  count:int ->
  Recorder.kind ->
  unit
(** Offer an event to the flight recorder (no-op when disabled). *)

val events : t -> Recorder.event list
(** Retained flight-recorder events, oldest first. *)

val samples : t -> Series.sample list

val sample_due : t -> packets:int -> bool
val push_sample : t -> Series.sample -> unit

val merge : into:t -> t -> unit
(** Merge a shard's telemetry: registries merge by (name, labels) with
    exact histogram merge, recorder rings concatenate (newest events win),
    series interleave by packet index, tracers flush then sum (a target
    with no tracer adopts the first shard's).  [src] is unchanged. *)

val write_jsonl : ?meta:(string * Gf_util.Json.t) list -> out_channel -> t -> unit
(** Emit the full JSONL stream: one {!Schema.Meta} line (with
    [schema_version], the caller's extra fields and the recorder census),
    every time-series sample, then every retained event. *)

val prometheus : t -> string
(** Prometheus text exposition of the registry. *)
