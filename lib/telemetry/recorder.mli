(** Event flight recorder: a fixed-size ring buffer of structured datapath
    events with configurable sampling.

    Every [sample_every]-th candidate event offered to {!record} is kept;
    the ring retains the newest [capacity] kept events and {!drain} returns
    them oldest-first.  Instrumentation can therefore fire on every
    hit/miss/install/evict without the recorder growing past O(capacity). *)

type kind =
  | Hit
  | Miss
  | Install
  | Evict
  | Promote
  | Revalidate
  | Reject
  | Pressure_evict
  | Defer
  | Demote

val kind_name : kind -> string
(** Lower-case wire name ("hit", "miss", ...). *)

type event = {
  seq : int;  (** candidate index within this recorder, 0-based *)
  packet : int;  (** virtual packet index when the event fired *)
  time : float;  (** virtual trace time, seconds *)
  level : string;  (** cache-level name; [""] for datapath-wide events *)
  kind : kind;
  latency_us : float;  (** 0 where latency is not meaningful *)
  count : int;  (** entries evicted / rules installed; 1 for hit/miss *)
}

type t

val create : ?capacity:int -> ?sample_every:int -> unit -> t
(** Defaults: [capacity = 4096], [sample_every = 1] (keep everything). *)

val record :
  t ->
  packet:int ->
  time:float ->
  level:string ->
  latency_us:float ->
  count:int ->
  kind ->
  unit

val drain : t -> event list
(** Retained events, oldest first.  Non-destructive. *)

val sample_every : t -> int

val seen : t -> int
(** Candidate events offered (before sampling). *)

val recorded : t -> int
(** Events that passed sampling (monotone; may exceed [capacity]). *)

val retained : t -> int
(** Events currently in the ring: [min recorded capacity]. *)

val dropped : t -> int
(** Sampled events the ring has overwritten: [recorded - retained]. *)

val merge : into:t -> t -> unit
(** Append [src]'s retained events into [into]'s ring (bypassing [into]'s
    sampling — they were already sampled) and add its candidate census.
    Per-shard streams concatenate in merge order; the ring then keeps the
    newest [capacity] of the combined stream.  [src] is unchanged. *)
