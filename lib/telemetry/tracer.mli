(** Traversal tracer: hot-path span recording for 1-in-N sampled packets
    (struct-of-arrays ring, plain array stores), pulled into
    {!Attribution} by the sampler off the packet loop.

    Determinism: packet k of a shard's stream is traced iff
    [k mod sample_every = 0] — a pure function of the stream — so
    engine==sequential bit-identity and sampler cadence invariance hold
    by construction.  One tracer per shard; merge after finalize. *)

type t = {
  sample_every : int;
  mutable until : int;
      (** packets until the next traced one; 0 = the current packet *)
  mutable active : bool;  (** current packet is being traced *)
  sp_packet : int array;
  sp_time : float array;
  sp_level : int array;
  sp_table : int array;
  sp_depth : int array;
  sp_cycles : int array;
  sp_outcome : int array;
  mutable sp_len : int;
  attr : Attribution.t;
}
(** Exposed so the datapath's packet paths can inline
    the common-case countdown and [active] checks instead of paying a
    cross-module call per packet.  Treat every field except [until] and
    [active] as private. *)

val create :
  ?span_capacity:int ->
  ?retain:int ->
  sample_every:int ->
  level_names:string array ->
  unit ->
  t
(** [sample_every] must be ≥ 1 (1 traces every packet).  [span_capacity]
    (default 2048) bounds the ring between pulls; [retain] is forwarded
    to {!Attribution.create}. *)

val on_packet : t -> bool
(** Advance the packet countdown and return whether this packet is
    traced.  Must be called exactly once per packet, before any {!span},
    on every replay path. *)

val active : t -> bool
(** Whether the current packet (last {!on_packet}) is being traced. *)

val span :
  t ->
  packet:int ->
  time:float ->
  level:int ->
  table:int ->
  depth:int ->
  cycles:int ->
  outcome:int ->
  unit
(** Append one span (see {!Attribution} for outcome codes); flushes to
    the attribution aggregates when the ring fills.  Only call when
    {!active} — the tracer does not re-check. *)

val flush : t -> unit
(** Pull the span ring into the attribution aggregates (emission order
    preserved); called by samplers and finalize. *)

val attribution : t -> Attribution.t
(** Flush, then expose the aggregates. *)

val merge : into:t -> t -> unit
(** Flush both sides, then sum into [into] ({!Attribution.merge}). *)
