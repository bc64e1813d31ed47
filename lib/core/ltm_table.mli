(** One hardware LTM table ([GF_k] in the paper): a capacity-bounded
    match-action table performing an exact match on the table tag and a
    ternary match on the ten header fields, selecting the highest-priority
    (longest sub-traversal) winner.

    Mirrors the homogeneous P4 table of the paper's Fig. 6: any table can
    hold any sub-traversal, preserving pipeline programmability. *)

(** An entry's recency clocks, in an all-float record (stored flat, so a
    write boxes no float). *)
type clock = {
  mutable last_used : float;
  mutable last_hit : float;
      (** Last time a walk {e completed} through this entry or an install
          reused it.  Partial walks that dead-end do not refresh it, so
          replacement policies can tell dead chain prefixes (touched by
          every miss) from entries still carrying full traversals.
          [last_used] keeps the touch-on-match semantics and drives idle
          expiry. *)
}

type stored = {
  rule : Ltm_rule.t;
  key : int;  (** Unique within the table. *)
  clock : clock;
  mutable shares : int;
      (** How many distinct installations resolved to this entry (1 at
          creation; +1 per deduplicated reuse) — the sharing statistic of
          the paper's Fig. 11. *)
  mutable slot : int;  (** The table's own bookkeeping: the index {!entry} reads. *)
  mutable safe_stamp : int;
  mutable safe : bool;
      (** Cached tag-chain safety verdict of the replacement pass
          ({!Ltm_cache.pick_victim}), valid while the stamp it was computed
          at holds; [safe_stamp = -1] until first computed. *)
}

type t

val create : capacity:int -> t
val occupancy : t -> int
val is_full : t -> bool

val lookup : t -> tag:int -> Gf_flow.Flow.t -> stored option * int
(** Longest-traversal match among entries with the given tag; ties go to the
    oldest entry (lowest key).  Returns the classifier work units. *)

val consumes : t -> int -> bool
(** [consumes t tag] iff some entry of [t] matches on [tag] (its [tag_in]).
    One hash probe, no scan over entries. *)

val consumed_changes : t -> int
(** Bumped whenever the set of tags the table consumes changes (a tag's
    first entry arrives or its last one leaves): a verdict derived from
    that set holds while the count is unchanged. *)

val find_identical : t -> Ltm_rule.t -> stored option
(** Entry with the same behavioural signature, if present. *)

val insert : t -> now:float -> Ltm_rule.t -> stored
(** Raises [Invalid_argument] when full — callers plan placement first. *)

val remove : t -> stored -> unit

val entry : t -> int -> stored
(** [entry t i] for [0 <= i < occupancy t]: the entries in an unspecified
    order that any insert or remove may change.  An array read, for scans
    that visit every entry. *)

val iter : t -> (stored -> unit) -> unit
val fold : t -> init:'a -> f:('a -> stored -> 'a) -> 'a
