(** Runtime-selectable classifier: wraps {!Linear}, {!Tss} or {!Nuevomatch}
    behind one value type so caches can switch search algorithms by
    configuration (the paper's Fig. 17 compares TSS vs NuevoMatch on the
    same cache contents). *)

type algo = [ `Linear | `Tss | `Nuevomatch ]

val algo_name : algo -> string
val algo_of_string : string -> algo option

type 'a t

val create : algo -> 'a t
val algo : 'a t -> algo
val insert : 'a t -> 'a Entry.t -> unit
val remove : 'a t -> int -> bool
val size : 'a t -> int
val lookup : 'a t -> Gf_flow.Flow.t -> 'a Entry.t option * int

val lookup_disjoint : 'a t -> Gf_flow.Flow.t -> 'a Entry.t option * int
(** Like {!lookup} but the caller asserts that any matching entry is
    acceptable (entries agree wherever they overlap), enabling the
    first-match ranked walk for TSS (see {!Tss.lookup_first}); other
    algorithms fall back to {!lookup}. *)

val prepare_replay : 'a t -> 'a Entry.t -> (unit -> int) option
(** Replay of a {!lookup_disjoint} hit on [entry] that stays exact under
    entry-set churn: the TSS positional walk ({!Tss.prepare_first}), which
    returns the probes a live lookup would report now and reapplies the
    rank promotion.  Valid only while [entry] remains stored.  [None] for
    the stateless algorithms, whose hit work the caller may replay only
    while the entry set is unchanged. *)
