let mask_of_width w =
  if w < 0 || w > 62 then invalid_arg "Bitops.mask_of_width: width outside 0..62";
  (1 lsl w) - 1

let prefix_mask ~width len =
  if len < 0 || len > width then invalid_arg "Bitops.prefix_mask: length outside 0..width";
  mask_of_width width land lnot (mask_of_width (width - len))

(* Set bits of each byte value; [popcount] reads its argument a byte at a
   time (at most 8 steps for a 63-bit int, 6 for a MAC). *)
let byte_bits =
  String.init 256 (fun i ->
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
      Char.chr (go i 0))

let rec popcount_from n acc =
  if n = 0 then acc
  else popcount_from (n lsr 8) (acc + Char.code (String.unsafe_get byte_bits (n land 0xff)))

let popcount n = popcount_from n 0

let is_subset ~sub ~super = sub land super = sub

(* splitmix64's finaliser with its multipliers cut to 62 bits (still odd,
   so each step stays a bijection on OCaml's 63-bit ints). *)
let[@inline] mix h =
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 29)) * 0x14d049bb133111eb in
  (h lxor (h lsr 32)) land max_int
