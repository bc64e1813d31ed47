(** A ternary match: a pattern flow plus a wildcard mask.

    This is the match half of every rule in the system — vSwitch pipeline
    rules, Megaflow cache entries and Gigaflow LTM entries all embed an
    [Fmatch.t].  The pattern is kept in canonical (pre-masked) form so
    structural equality coincides with match equivalence. *)

type t = private { pattern : Flow.t; mask : Mask.t }

val v : pattern:Flow.t -> mask:Mask.t -> t
(** Canonicalises: stores [Mask.apply mask pattern] and the
    {!Mask.intern}ed mask, so by-mask grouping downstream compares
    pointers. *)

val any : t
(** Matches every flow. *)

val exact : Flow.t -> t
(** Matches exactly one flow. *)

val of_fields : (Field.t * int) list -> t
(** Exact match on the listed fields, wildcard elsewhere. *)

val with_prefix : t -> Field.t -> value:int -> len:int -> t
(** Add a CIDR-style prefix constraint on one field. *)

val matches : t -> Flow.t -> bool

val mask : t -> Mask.t
val pattern : t -> Flow.t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by matches using {!hash}/{!equal} (monomorphic). *)

val is_more_specific : t -> than:t -> bool
(** [is_more_specific a ~than:b] iff [a]'s mask subsumes... i.e. [a] constrains
    every bit [b] constrains (and matches a subset of what [b] matches when
    the shared bits agree). *)

val overlaps : t -> t -> bool
(** Some flow matches both. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
