(** CAIDA-style packet trace synthesis.

    Only two statistics of the CAIDA traces matter to the paper's
    experiments — heavy-tailed flow sizes and overlapping flow lifetimes
    with bursty inter-packet gaps — and both are modelled here: flow sizes
    are Pareto-distributed, each flow starts at a uniformly random offset
    in the trace and emits packets separated by exponential gaps. *)

type packet = {
  time : float;  (** seconds from trace start *)
  flow_id : int;  (** index into the unique-flow array *)
  flow : Gf_flow.Flow.t;
}

type t = {
  packets : packet array;  (** sorted by time *)
  unique_flows : int;
  duration : float;
}

val generate :
  ?duration:float ->
  ?mean_flow_size:float ->
  ?max_flow_size:int ->
  ?start_spread:float ->
  ?lifetime_frac:float ->
  seed:int ->
  flows:Gf_flow.Flow.t array ->
  unit ->
  t
(** [duration] defaults to 60 s; [mean_flow_size] to 8 packets;
    [max_flow_size] caps the Pareto tail (default 2048); flows start
    uniformly within the first [start_spread] of the trace (default 0.5)
    and live for roughly [lifetime_frac] of it (default 0.3).
    Deterministic in [seed]. *)

val churn :
  ?duration:float ->
  ?epochs:int ->
  ?active:int ->
  ?turnover:float ->
  ?packets_per_epoch:int ->
  seed:int ->
  flows:Gf_flow.Flow.t array ->
  unit ->
  t
(** A capacity-pressure trace: the trace is cut into [epochs] equal slices
    (default 30 over a 60 s [duration]); each slice draws
    [packets_per_epoch] packets (default 2048) uniformly from an
    [active]-wide window (default 512) into [flows], and between slices
    the window slides by [turnover * active] flows (default 0.25),
    wrapping around the array.  The rotating population keeps installing
    fresh entries while recently-cold ones still occupy space — the
    regime where replacement policy choice matters.  Deterministic in
    [seed].  Raises [Invalid_argument] on empty [flows], [epochs < 1] or
    [packets_per_epoch < 0]. *)

val elephant_mice :
  ?duration:float ->
  ?elephants:int ->
  ?elephant_share:float ->
  ?packets:int ->
  seed:int ->
  flows:Gf_flow.Flow.t array ->
  unit ->
  t
(** A two-population skew trace: the first [elephants] flows (default 16)
    carry [elephant_share] of the [packets] (defaults 0.8 and 32768); the
    rest are mice drawn uniformly — each appears only a handful of times
    over the whole trace.  The regime where hardware-slot admission policy
    dominates: any slot spent on a mouse is wasted.  Deterministic in
    [seed].  Raises [Invalid_argument] on empty [flows] or
    [packets < 0]. *)

val drifting_skew :
  ?duration:float ->
  ?epochs:int ->
  ?zipf_s:float ->
  ?drift:int ->
  ?packets_per_epoch:int ->
  seed:int ->
  flows:Gf_flow.Flow.t array ->
  unit ->
  t
(** Zipf(s=[zipf_s], default 1.2) traffic whose rank -> flow mapping
    rotates by [drift] flows (default 64) each of [epochs] epochs
    (default 8 x 4096 packets): the heavy-hitter identity set slides, so
    entries for yesterday's elephants go cold while still holding cache
    space.  Separates admission schemes that track drift (decay +
    demotion) from ones that only gate installs.  Deterministic in
    [seed].  Raises [Invalid_argument] on empty [flows], [epochs < 1] or
    [packets_per_epoch < 0]. *)

val packet_count : t -> int

(** {1 Streaming}

    A pull-based packet source for the batched engine: the consumer hands
    over its own buffers and receives up to [max] packets per call, so
    arbitrarily long traces cost constant memory (no materialised packet
    array, no global sort). *)

type stream

val fill :
  stream ->
  times:float array ->
  flow_ids:int array ->
  flows:Gf_flow.Flow.t array ->
  max:int ->
  int
(** Pull the next batch: writes up to [max] packets into the buffer
    prefixes (all three arrays must have length >= [max]) and returns the
    count written; [0] means end of stream.  Times are nondecreasing
    across calls.  A given [flow_id] is always paired with the same flow
    value (the contract the engine's memoisation relies on). *)

val stream_of_trace : t -> stream
(** Iterate a materialised trace (one pass; for determinism comparisons
    against array-based replay). *)

val steady :
  ?duration:float ->
  ?zipf_s:float ->
  packets:int ->
  seed:int ->
  flows:Gf_flow.Flow.t array ->
  unit ->
  stream
(** A constant-memory steady-state source: each of [packets] packets draws
    its flow Zipf(s=[zipf_s], default 1.1) independently over [flows]
    (rank 0 most popular) with exponential inter-packet gaps averaging
    [duration / packets] seconds.  The popular-flow working set is stable
    for the whole stream — the regime where caches (and the engine's
    memo replay) converge — in contrast to {!generate}'s flow churn.
    Deterministic in [seed].  Raises [Invalid_argument] on empty [flows]
    or [packets < 0]. *)

val trace_of_stream : ?batch:int -> stream -> t
(** Materialise a stream (test/debug helper — drains it fully). *)

val concat : t -> t -> offset:float -> t
(** [concat a b ~offset] shifts [b]'s packets by [offset] seconds and merges
    (for the paper's Fig. 18 dynamic-arrival experiment).  Flow ids of [b]
    are renumbered after [a]'s. *)
