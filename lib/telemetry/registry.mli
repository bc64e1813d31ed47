(** Mergeable metric registry: counters, gauges and latency histograms
    keyed by (name, labels).

    Instrumented code resolves its handles once (e.g. at datapath creation)
    and mutates the returned refs directly — registry lookup is never on
    the per-packet path.  [merge] folds one registry into another by
    (name, labels): counters and gauges add (parallel shards own disjoint
    caches, so instantaneous gauges like occupancy sum), histograms merge
    exactly. *)

type t

type labels = (string * string) list

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of Histogram.t

val create : unit -> t

val counter : t -> ?labels:labels -> ?help:string -> string -> int ref
(** Find-or-create.  Raises [Invalid_argument] if the name is already
    registered with a different metric kind. *)

val gauge : t -> ?labels:labels -> ?help:string -> string -> float ref

val histogram :
  t ->
  ?labels:labels ->
  ?help:string ->
  ?lo:float ->
  ?hi:float ->
  ?sub:int ->
  string ->
  Histogram.t

val set_histogram :
  t -> ?labels:labels -> ?help:string -> string -> Histogram.t -> unit
(** Register an externally-owned histogram (e.g. the datapath's always-on
    latency histograms) so exporters see it.  Re-registering the same
    (name, labels) replaces the previous histogram (idempotent export);
    raises [Invalid_argument] if it names a non-histogram metric. *)

val iter :
  (name:string -> labels:labels -> help:string -> metric -> unit) -> t -> unit
(** Iterate in registration order. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into] by (name, labels); metrics only [src] has seen
    are copied in.  [src] is unchanged. *)
