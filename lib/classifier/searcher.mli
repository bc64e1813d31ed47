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

val replay_disjoint : 'a t -> 'a Entry.t -> prev_work:int -> int
(** Replay a memoised {!lookup_disjoint} hit on [entry]: the work a live
    lookup would report now, with any self-organising side effect (TSS
    rank promotion) reapplied.  Stateless algorithms return [prev_work]
    unchanged, which is only sound while the entry set is structurally
    unchanged; the TSS walk is exact under churn as long as [entry] is
    still stored (see {!Tss.replay_first}). *)

val prepare_replay : 'a t -> 'a Entry.t -> (unit -> int) option
(** Compiled {!replay_disjoint}: per-entry setup hoisted out of the
    per-packet path (TSS resolves the entry's tuple once; see
    {!Tss.prepare_first}).  [None] for stateless algorithms — callers
    fall back to the memoised work value under their own generation
    guard.  The closure is valid only while [entry] remains stored. *)

