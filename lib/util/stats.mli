(** Small statistics toolkit for experiment reporting: running accumulators,
    percentiles and fixed-width histograms. *)

(** {1 Running accumulator} *)

module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val merge : into:t -> t -> unit
  (** Fold [src]'s samples into [into] (Chan's pairwise mean/M2 update):
      afterwards [into] reports the same count/mean/variance/min/max as if
      it had seen both sample streams.  [src] is unchanged.  Used to
      aggregate per-domain metrics after parallel replay. *)

  val count : t -> int
  val total : t -> float
  val mean : t -> float
  (** Mean of the samples; [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance (Welford); [nan] with fewer than two samples. *)

  val min : t -> float
  val max : t -> float
end

(** {1 Batch helpers}

    All batch helpers drop NaN samples before aggregating — one garbage
    sample must not poison (or, under a comparison sort, arbitrarily
    reorder) the whole batch.  An all-NaN or empty input yields [nan]. *)

val mean : float array -> float
(** Mean of the non-NaN samples; [nan] when none. *)

val stddev : float array -> float
(** Unbiased sample standard deviation of the non-NaN samples; [0.0] for a
    single sample (no observed spread), [nan] when none — callers writing
    JSON must treat [nan] as "absent", never print it. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]]; linear interpolation between
    order statistics of the non-NaN samples ([Float.compare], total order).
    The input array is not modified.  Raises [Invalid_argument] when [p] is
    out of range or NaN (a real check, not an [assert] — it survives
    [-noassert] builds). *)

val median : float array -> float

(** {1 Histogram} *)

module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** Raises [Invalid_argument] unless [bins > 0] and [hi > lo]. *)

  val add : t -> float -> unit
  (** Out-of-range samples are clamped into the first/last bin. *)

  val counts : t -> int array
  val total : t -> int
  val bin_bounds : t -> int -> float * float
  (** [bin_bounds t i] is bin [i]'s [(lo, hi)]; raises [Invalid_argument]
      unless [0 <= i < bins]. *)
end
