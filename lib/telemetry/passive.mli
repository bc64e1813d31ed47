(** Passive (pull-model) telemetry: flat preallocated records written by
    the datapath hot path with plain field/array stores, drained by a
    sampler on its own cadence (per batch in the streaming engine, per N
    packets in the walker, unconditionally at finalize).

    The record types are exposed transparently on purpose: emission sites
    mutate the fields directly — no hashtable lookups, no closures, no
    calls on the per-packet path.  All histogram bucket aggregation,
    series appending and flight-recorder sampling happens at flush time,
    off the packet loop.

    Determinism: flushes preserve emission order and each histogram /
    recorder is fed by exactly one ring, so a shard's final telemetry is a
    pure function of its packet stream — identical at any sampler cadence.
    Finalize-time flushing precedes shard merges, so engine==sequential
    bit-identity is preserved. *)

type counters = {
  c_level : string;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_installs : int;
  mutable c_evicts : int;
  mutable c_promotes : int;
  mutable c_revalidates : int;
  mutable c_rejects : int;
  mutable c_pressure_evicts : int;
  mutable c_defers : int;
  mutable c_demotes : int;
}
(** Per-level event-candidate census: one mutable int per event kind,
    bumped by the hot path.  Counts are in event units (entries evicted,
    rules installed, 1 per hit/miss). *)

type lat_ring = {
  lr_vals : float array;
  lr_idxs : int array;  (** [lr_idxs.(k) = Histogram.index h lr_vals.(k)] *)
  mutable lr_len : int;
  mutable lr_wraps : int;
      (** ring-full auto-flushes — non-zero means the sampler cadence is
          slower than the ring fills *)
}
(** Raw-latency ring: samples with their precomputed bucket indices,
    bulk-recorded into the owning histogram on flush
    ({!Histogram.record_seq}, bit-identical to inline records). *)

type t = {
  counters : counters array;  (** walk order, one record per level *)
  lat_global : lat_ring;
  lat_levels : lat_ring array;  (** same order as [counters] *)
  ev_kind : int array;
  ev_level : int array;
  ev_packet : int array;
  ev_count : int array;
  ev_time : float array;
  ev_lat : float array;
  mutable ev_len : int;
  mutable ev_wraps : int;  (** event-ring-full auto-flushes *)
  level_names : string array;
  recorder : Recorder.t option;
  events_on : bool;
      (** [recorder <> None]; emission sites test this field to skip the
          event-ring append entirely when event tracing is off. *)
}

val create :
  ?lat_capacity:int ->
  ?event_capacity:int ->
  level_names:string array ->
  recorder:Recorder.t option ->
  unit ->
  t
(** Defaults: [lat_capacity = 1024] samples per ring,
    [event_capacity = 4096] candidates. *)

val flush_lat : lat_ring -> Histogram.t -> unit
(** Bulk-record the ring's samples into [h] in emission order and empty
    it.  Afterwards [h] is bit-identical to having called
    [Histogram.record] per sample inline. *)

val lat_note : lat_ring -> Histogram.t -> float -> unit
(** Append one sample (bucket index computed here — one log2, the same
    the inline record would have paid), flushing into the histogram when
    the ring fills. *)

val lat_note_at : lat_ring -> Histogram.t -> idx:int -> float -> unit
(** {!lat_note} with the bucket index precomputed ([idx] must equal
    [Histogram.index h x]) — the compiled replay fast path pays no log2. *)

val note :
  t ->
  kind:Recorder.kind ->
  level:int ->
  packet:int ->
  time:float ->
  lat:float ->
  count:int ->
  unit
(** Append a flight-recorder candidate to the event ring ([level] indexes
    [level_names]), flushing to the recorder when the ring fills.  No-op
    when [events_on] is false. *)

val flush_events : t -> unit
(** Hand the ring's candidates to {!Recorder.ingest} in emission order and
    empty it.  Retained events are identical to having offered each
    candidate to [Recorder.record] at emission time. *)

val to_registry : t -> Registry.t -> unit
(** Export the candidate census as [gigaflow_events_total{level,kind}]
    and the ring-full auto-flush counts as
    [gigaflow_passive_ring_flushes_total{ring}] (rings: [latency_global],
    [latency:<level>], [events]).  Values are set (not added), so
    re-export is idempotent; shard registries still sum under
    {!Registry.merge}. *)

val total_candidates : t -> int
(** Sum of every per-level, per-kind census field (test support). *)

val ring_flushes : t -> int
(** Total ring-full auto-flushes across every ring (test support). *)
