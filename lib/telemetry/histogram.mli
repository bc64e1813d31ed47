(** Log-linear (HDR-style) histogram with exact merge.

    The positive axis from [lo] upward is split into octaves, each octave
    into [sub] equal-width sub-buckets, so every bucket's relative width is
    at most [1/sub] — recorded quantiles are within that relative error of
    the exact order statistic.  Two histograms with the same layout merge
    {e exactly} (count arrays add), so per-domain histograms aggregate
    without losing tail fidelity.

    [record] allocates nothing (one log2 plus integer/float mutation) and
    is cheap enough to stay always-on in the datapath's per-packet path. *)

type t

val create : ?lo:float -> ?hi:float -> ?sub:int -> unit -> t
(** [create ~lo ~hi ~sub ()] covers [\[lo, hi)] with log-linear buckets
    plus an underflow bucket ([< lo], including non-positive samples) and
    an overflow bucket ([>= hi], clamped).  Defaults: [lo = 0.1],
    [hi = 1e7], [sub = 32] (relative error ~3%). *)

val record : t -> float -> unit

val index : t -> float -> int
(** Bucket index {!record} would use for a sample — exposed so hot paths
    that record the same value repeatedly (the batched engine's compiled
    hit replay, whose hardware-hit latency is constant) can compute it
    once and use {!record_at}. *)

val record_at : t -> int -> float -> unit
(** [record_at t i x] is {!record}[ t x] with the bucket index [i]
    precomputed; [i] must equal [index t x]. *)

val count : t -> int
val sum : t -> float

val mean : t -> float
(** 0.0 when empty. *)

val min_value : t -> float
(** Exact minimum recorded sample; [nan] when empty. *)

val max_value : t -> float
(** Exact maximum recorded sample; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [\[0, 1\]]: representative value of the
    bucket holding the rank-[ceil q*count] sample, clamped into the exact
    observed [min, max] range.  0.0 when empty.  The worst-case relative
    bucket width is [1/sub], so a reported quantile [v] brackets the exact
    order statistic within [v * (1 +- 1/sub)] (plus the underflow bucket's
    absolute [lo] bound for samples below [lo]). *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float
val p999 : t -> float

val merge : into:t -> t -> unit
(** Add [src]'s buckets into [into].  Exact: afterwards [into] equals a
    histogram that recorded both sample streams.  Raises [Invalid_argument]
    if the layouts differ.  [src] is unchanged. *)

val same_layout : t -> t -> bool
val copy : t -> t

val bounds_of_value : t -> float -> float * float
(** Bounds of the bucket a value would land in (test oracle support). *)

val iter_buckets : (lo:float -> hi:float -> count:int -> unit) -> t -> unit
(** Iterate non-empty buckets in increasing value order. *)
