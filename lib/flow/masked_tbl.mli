(** Hash table of masked patterns under one fixed mask — a classifier tuple.

    The table compiles its mask into the list of non-zero slots and their
    mask words, and probes with the {e unmasked} flow: hashing and
    comparison read only those slots, masking on the fly.  Stored keys are
    masked patterns (as {!Fmatch.pattern} is), so probing with a stored key
    finds it too.  The hash is {!Flow.hash}'s mixed FNV-1a restricted to
    the mask's slots; it is private to the table, and {!Flow.hash} stays
    the hash of whole flows.  Bindings are unique per key.

    Most classifier probes miss, so the table keeps a counting filter in
    front of its buckets: per cell, the number of stored keys whose masked
    value on one slot of the mask (the widest mask word, lowest slot on
    ties) hashes there.  A probe whose value lands on a zero cell is a
    definite miss and skips the masked hash and the bucket load.  The
    filter is exact in what it answers — it only ever says "absent" for
    an absent key — and it is invisible to callers: classifiers count
    such a probe like any other.  The table grows at load 1/2, so a probe
    that passes the filter usually finds an empty bucket. *)

type 'a t

val create : Mask.t -> int -> 'a t
(** [create mask n]: an empty table for [mask] with about [n] buckets; it
    grows as bindings are added. *)

val length : 'a t -> int
(** Number of bindings. *)

val find_opt : 'a t -> Flow.t -> 'a option
(** [find_opt t flow] is the binding of the pattern [Mask.apply m flow],
    [m] the table's mask, if any.  [flow] need not be masked; the probe
    allocates only the result's [Some].  When no stored key shares
    [flow]'s filter cell, the answer is [None] after a few loads and one
    multiply, without hashing [flow] under [m]; any other probe hashes and
    walks its bucket's chain. *)

val replace : 'a t -> Flow.t -> 'a -> unit
(** [replace t key v] binds the pattern [key], replacing any binding it
    had.  Raises [Invalid_argument] unless [key] is masked by the table's
    mask. *)

val remove : 'a t -> Flow.t -> unit
(** Drop the binding of the pattern that [key] masks to, if any. *)

val fold : (Flow.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every (pattern, value) binding, in an unspecified order. *)

val max_chain : 'a t -> int
(** Length of the longest bucket chain — how well the hash spreads the
    stored patterns. *)
