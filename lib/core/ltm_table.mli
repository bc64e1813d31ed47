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
  mutable live : bool;  (** Set by {!insert}; {!remove} clears it for good. *)
}

type t

val create : capacity:int -> t
val occupancy : t -> int
val is_full : t -> bool

val lookup : t -> tag:int -> Gf_flow.Flow.t -> stored option * int
(** Longest-traversal match among entries with the given tag; ties go to the
    oldest entry (lowest key).  Returns the classifier work units. *)

type visit
(** One {!lookup} together with what its outcome depended on: the tag's
    classifier ([None] if the tag had none), that classifier's insert
    count, the flow as it reached the table and the entry it matched. *)

val lookup_visit : t -> tag:int -> Gf_flow.Flow.t -> visit * int
(** {!lookup}, recorded for {!revisit}. *)

val winner : visit -> stored option

val revisit : visit -> int
(** The work a {!lookup} of the visit's tag and flow reports now, if its
    winner is still the visit's; -1 if that may have changed.  The winner
    holds while it is still stored ({!stored.live}) and no entry inserted
    into the tag's classifier since the visit matches the flow and beats
    the winner ([Gf_classifier.Entry.better]; with no winner, any match
    beats it) — removing other entries cannot change it.  Each tag's
    classifier logs its last 256 inserts, so a visit more than 256 inserts
    behind reports -1.  The work is recounted
    ({!Gf_classifier.Tss.probes_for}), not re-probed.  A visit that holds
    moves up to the current insert count, so the next call checks only
    later inserts.  Allocates nothing, save once when the tag's classifier
    first appears after the visit. *)

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
