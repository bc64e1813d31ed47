(** Zipf-distributed sampling over ranks [0 .. n-1].

    Used to model the skewed popularity of flows and rules in traffic traces
    (CAIDA-like behaviour): rank r is drawn with probability proportional to
    [1 / (r+1)^s]. *)

type t

val create : n:int -> s:float -> t
(** [create ~n ~s] precomputes the CDF for [n] ranks and exponent [s].
    Requires [n > 0] and [s >= 0] ([s = 0] degenerates to uniform);
    raises [Invalid_argument] otherwise. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [\[0, n)]; rank 0 is the most popular. *)

val pmf : t -> int -> float
(** [pmf t r] is the probability of rank [r]; raises [Invalid_argument]
    unless [0 <= r < n t]. *)
