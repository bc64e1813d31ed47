(** Deterministic pseudo-random number generation.

    Every source of randomness in the repository flows through this module so
    that experiments are reproducible bit-for-bit from a seed.  The generator
    is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny state, excellent
    statistical quality for simulation workloads, and a cheap [split]
    operation for deriving independent sub-streams.

    A draw allocates nothing: the state is kept unboxed.  Only a result
    that reaches the caller boxed allocates: the [int64] of {!bits64} and
    the [float] of {!float}, {!exponential} or {!pareto} when the call is
    not inlined (in a build that compiles modules [-opaque], such as
    dune's default dev profile). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from a seed. *)

val copy : t -> t
(** [copy t] duplicates the state, so both copies produce the same stream. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t].  Use this to
    hand sub-streams to sub-components without correlating them. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    unless [bound > 0].
    Exactly uniform for every bound (bitmask-and-reject sampling, not the
    modulo-biased [bits mod bound]). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.  Raises
    [Invalid_argument] if [hi < lo]. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  Raises [Invalid_argument] on
    an empty one. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** [pick_weighted t items] samples proportionally to the (positive) weights.
    Requires a non-empty array with at least one positive weight. *)

val geometric : t -> float -> int
(** [geometric t p] counts Bernoulli(p) failures before the first success
    (support {0, 1, ...}).  Raises [Invalid_argument] unless
    [0 < p <= 1].  The result is clamped to
    [\[0, max_int\]] — tiny [p] would otherwise overflow the int range, where
    [int_of_float] is unspecified. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** Pareto(alpha, xmin) sample; heavy-tailed, used for flow sizes.
    Raises [Invalid_argument] unless [alpha > 0] and [xmin > 0]. *)

val exponential : t -> mean:float -> float
(** Exponential sample with the given mean; used for inter-arrival gaps.
    Raises [Invalid_argument] unless [mean > 0]. *)
