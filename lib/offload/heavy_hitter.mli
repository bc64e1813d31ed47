(** Space-saving (Misra–Gries / "stream-summary") top-K heavy-hitter sketch
    over flow keys.

    Tracks at most [k] flows in a flat array kept sorted by count
    (descending).  When an untracked flow arrives and the sketch is full,
    the minimum entry is replaced and its count is inherited as the
    newcomer's error bound — the classic space-saving guarantee: [count f]
    over-estimates the true frequency by at most [err f], so
    [count f - err f] (the {e guaranteed} count) never over-estimates.

    Cost model: {!observe} hashes the flow once ({!Gf_flow.Flow.hash}) and
    finds its row through an open-addressing index keyed by that hash;
    rows carry their slot, so a row move re-points the index without
    rehashing.  An increment moves the entry to the head of its equal-count
    run with one swap: O(1) inside the minimum-count run (every newcomer
    and every replacement lands there) and for an entry alone in its run
    (typically an elephant), O(log k) elsewhere (a binary search of the
    sorted counts).  Steady-state observation allocates nothing.

    Determinism: observations are pure state-machine transitions (no RNG,
    no wall clock), so the per-worker sketches the engine keeps over
    disjoint RSS flow sets are reproducible — the engine==sequential
    bit-identity property survives admission decisions made from the
    sketch. *)

type t

val create : k:int -> t
(** [create ~k] tracks up to [k] flows ([k >= 1]).  All storage is
    preallocated; steady-state observation does not allocate. *)

val k : t -> int
val size : t -> int
(** Number of flows currently tracked (<= k). *)

val observed : t -> int
(** Total observations since creation (not reset by {!decay}). *)

val observe : t -> Gf_flow.Flow.t -> unit
(** Count one packet for [flow]: one hash, no allocation; O(1) in the
    minimum-count run or for an entry alone in its run, O(log k)
    otherwise. *)

val last_guaranteed : t -> int
(** {!guaranteed} of the flow the latest {!observe} counted, as it stood
    right after that observation — the admission test for the packet being
    processed, without a second hash.  0 before any observation. *)

val count : t -> Gf_flow.Flow.t -> int
(** Estimated frequency (upper bound); 0 if untracked. *)

val guaranteed : t -> Gf_flow.Flow.t -> int
(** [count - err]: hits definitely attributed to this flow since it entered
    the sketch.  Never over-estimates the true frequency.  0 if
    untracked. *)

val hot : t -> threshold:int -> Gf_flow.Flow.t -> bool
(** [hot t ~threshold f] is [guaranteed t f >= threshold] — the admission
    predicate.  Using the guaranteed count makes admission robust to the
    inherited-error over-estimate: a mouse that just replaced the minimum
    entry starts with [guaranteed = 1] no matter how large the inherited
    count is. *)

val decay : t -> unit
(** Halve every count and error bound and drop entries that reach zero —
    the periodic aging step that lets the hot set track drifting skew.
    O(k); run it on the expiry-sweep cadence, not per packet. *)

val retarget : t -> k:int -> unit
(** Resize the sketch to track up to [k] flows {e in place}, preserving the
    tracked entries instead of rebuilding from scratch: shrinking truncates
    the lowest-count rows (the sorted suffix), growing reallocates storage
    and keeps every entry.  O(k); counts, error bounds and [observed] carry
    over, so an online controller can retune K without losing the hot set.
    No-op when [k] already matches. *)

val check_invariants : t -> bool
(** Structural self-check (test hook): rows [0, size) sorted by count
    descending with [1 <= count] and [0 <= err <= count]; the cached head
    of the minimum-count run is that run's leftmost row; the row index
    holds exactly the live rows, each in a slot with its flow's hash that
    the flow's probe sequence reaches without crossing an empty slot, and
    the slot count is a power of two of at least [2k].  O(k). *)

val top : t -> n:int -> (Gf_flow.Flow.t * int * int) list
(** [(flow, count, err)] for the [n] highest-count entries, count
    descending (ties broken by [Flow.compare] for determinism). *)

(** {1 Admission policy} *)

type policy =
  | Admit_all  (** legacy behaviour: every slowpath installs everywhere *)
  | Heavy_hitter of { k : int; threshold : int }
      (** hardware tiers only admit flows with [guaranteed >= threshold] *)

val default_k : int
val default_threshold : int

val policy_to_string : policy -> string

val policy_of_string : string -> (policy, string) result
(** Accepts ["all"], ["hh"], ["hh:K"] (e.g. ["hh:256"]). *)

val policy_with_threshold : policy -> int -> policy
(** Override the threshold; identity on [Admit_all]. *)
