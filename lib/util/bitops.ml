let mask_of_width w =
  assert (w >= 0 && w <= 62);
  if w = 0 then 0 else (1 lsl w) - 1

let prefix_mask ~width len =
  assert (len >= 0 && len <= width);
  mask_of_width width land lnot (mask_of_width (width - len))

let popcount n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go n 0

let is_subset ~sub ~super = sub land super = sub

(* splitmix64's finaliser with its multipliers cut to 62 bits (still odd,
   so each step stays a bijection on OCaml's 63-bit ints). *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 29)) * 0x14d049bb133111eb in
  (h lxor (h lsr 32)) land max_int
