(** A flow signature: one concrete value per header field.

    A [Flow.t] plays two roles, matching the paper's notation: it is both the
    header vector of an incoming packet ([F]) and the evolving flow state as
    actions modify fields while the packet moves through the pipeline
    ([F^i]).  Values are immutable; [set] returns an updated copy. *)

type t

val zero : t
(** All fields 0. *)

val make : (Field.t * int) list -> t
(** [make bindings] is [zero] with the given fields set.  Values are
    truncated to the field width.  Later bindings win. *)

val get : t -> Field.t -> int
val set : t -> Field.t -> int -> t

val update : t -> (Field.t * int) list -> t
(** [update t bindings] applies every binding with a {b single} copy of the
    underlying vector (vs. one copy per field with repeated {!set}) — the
    cache-hit commit path.  [update t \[\]] is [t] itself, allocation-free. *)

val equal : t -> t -> bool
(** Slot-wise; allocation-free. *)

val compare : t -> t -> int

val hash : t -> int
(** FNV-1a over the slots with a final avalanche ({!Gf_util.Bitops.mix}):
    keys that differ only in high bits, such as prefix-masked addresses,
    still spread over the low bits a hash table buckets by. *)

val slot : t -> int -> int
(** [slot t i] is [get t (Field.of_index i)] without the field lookup — the
    accessor of index-compiled probes such as {!Masked_tbl}. *)

val to_array : t -> int array
(** Copy of the underlying 10-slot vector (index = [Field.index]). *)

val of_array : int array -> t
(** Inverse of [to_array]; requires length [Field.count]; values are truncated
    to field width. *)

val land_array : t -> int array -> t
(** [land_array f m] is the flow whose slot [i] is [get f (of_index i) land
    m.(i)] — a single-pass masked copy.  [m] must have length
    {!Field.count}; see [Mask.apply] for the public wrapper. *)

module Tbl : Hashtbl.S with type key = t
(** Hash table keyed by flows using {!hash}/{!equal} (monomorphic — no
    polymorphic-compare traversals on the per-packet lookup path). *)

val pp : Format.formatter -> t -> unit
(** Prints only non-zero fields, e.g. [eth_dst=0x2 ip_dst=0xa000001]. *)

val to_string : t -> string
