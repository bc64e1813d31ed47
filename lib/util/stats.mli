(** Small statistics toolkit for experiment reporting: running accumulators
    and percentiles. *)

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

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]]; linear interpolation between
    order statistics of the non-NaN samples ([Float.compare], total order).
    The input array is not modified.  Raises [Invalid_argument] when [p] is
    out of range or NaN (a real check, not an [assert] — it survives
    [-noassert] builds). *)

val median : float array -> float
