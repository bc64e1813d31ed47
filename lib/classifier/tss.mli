(** Tuple Space Search (Srinivasan, Suri & Varghese, SIGCOMM'99).

    Entries are grouped by mask into tuples; each tuple is a
    {!Gf_flow.Masked_tbl} from the masked pattern to its entries, probed
    with the unmasked flow.  Lookup probes tuples in
    decreasing max-priority order and stops as soon as the current winner
    strictly out-prioritises every remaining tuple.  Work units = tuples
    probed (the O(M) cost the paper and NuevoMatch target). *)

include Classifier_intf.S

val tuple_count : 'a t -> int
(** Number of distinct masks currently stored. *)

val probes_for : 'a t -> int -> int
(** [probes_for t p] is the work {!lookup} reports now for a flow whose
    winner has priority [p] — the tuples whose max priority is at least
    [p] — or, with [p = min_int], for a flow that matches nothing (every
    tuple).  It re-probes no bucket: a binary search over the tuple maxima
    in priority order, an array rebuilt in place only after that order or
    a maximum has changed.  Allocates nothing. *)

val lookup_first : 'a t -> Gf_flow.Flow.t -> 'a Entry.t option * int
(** First-match walk over hit-frequency-ranked tuples (a matching tuple is
    promoted to the front, like OVS's ranked subtables).  {b Only} correct
    when any matching entry is acceptable to the caller — the Megaflow
    cache's situation, where overlapping entries always agree (every entry
    reproduces the slowpath decision; property-tested).  Misses still probe
    every tuple. *)

val prepare_first : 'a t -> 'a Entry.t -> (unit -> int) option
(** Compiled replay of a {!lookup_first} hit on [entry]: resolve the
    entry's tuple once, returning a closure that reports the probe count a
    live ranked walk would report now (the tuple's rank position, which
    drifts as other flows promote their tuples) and promotes the tuple,
    without re-masking or re-probing buckets.  Sound while [entry] is
    still stored and entries are pairwise disjoint, even across unrelated
    inserts/removals; callers must stop using it once the entry is removed
    (it raises if the tuple has left the rank list).  [None] if the
    entry's tuple is absent. *)
