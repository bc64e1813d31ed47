(** Bounded single-producer single-consumer ring buffer — the links of the
    streaming engine's app graph (Snabb-style).

    Exactly one domain may push and exactly one may pop (they can be the
    same domain).  The fast path is wait-free and allocation-free: each
    side owns one atomic index and caches a snapshot of the other side's,
    so steady-state pushes and pops touch a single shared cache line only
    when the ring looks full/empty. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is rounded up to the next power of two. *)

val capacity : 'a t -> int

val try_push : 'a t -> 'a -> bool
(** [false] if the ring is full.  Producer side only. *)

val try_pop : 'a t -> 'a option
(** [None] if the ring is empty.  Consumer side only. *)

val push : 'a t -> 'a -> unit
(** Blocking {!try_push}: spins briefly, then sleep-polls (~0.2 ms) so an
    oversubscribed host's peer domain gets the timeslice it needs. *)

val pop : 'a t -> 'a
(** Blocking {!try_pop}; same wait strategy as {!push}. *)
