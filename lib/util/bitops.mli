(** Bit-level helpers shared by the flow/mask algebra and the generators. *)

val mask_of_width : int -> int
(** [mask_of_width w] is a value with the low [w] bits set.  Raises
    [Invalid_argument] unless [0 <= w <= 62]. *)

val prefix_mask : width:int -> int -> int
(** [prefix_mask ~width len] is the mask matching the top [len] bits of a
    [width]-bit field (CIDR-style), e.g.
    [prefix_mask ~width:32 24 = 0xFFFFFF00].  Raises [Invalid_argument]
    unless [0 <= len <= width] (and [width <= 62]). *)

val popcount : int -> int
(** Number of set bits, over all 63 bits of a negative argument too. *)

val is_subset : sub:int -> super:int -> bool
(** [is_subset ~sub ~super] iff every bit of [sub] is set in [super]. *)

val mix : int -> int
(** Avalanche finaliser for hash accumulators: every output bit depends on
    every input bit, so hash tables bucketing by the low bits spread keys
    that differ only in high bits.  The result is non-negative. *)
