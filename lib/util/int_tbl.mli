(** Hash table keyed by ints, for per-packet lookups by flow id or tag.
    The hash is the identity, so iteration order follows the keys' low
    bits: use it where the order cannot leak into results. *)

include Hashtbl.S with type key = int
