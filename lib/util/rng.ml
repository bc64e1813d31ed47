(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would hold a pointer to a boxed integer, so every draw
   would allocate a fresh box and run the write barrier. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 finaliser (variant 13 of Stafford's mix). *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (bits64 t)

(* Smallest all-ones mask covering [v] (v > 0). *)
let mask_above v =
  let m = v lor (v lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  m lor (m lsr 32)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Bitmask-and-reject sampling: draw 62 bits (always a non-negative OCaml
     int), mask down to the smallest power-of-two window covering [bound],
     and redraw on overshoot.  Unlike [x mod bound] this is exactly uniform
     for every bound, not just powers of two; each draw accepts with
     probability > 1/2, so the expected number of redraws is < 1.  For
     power-of-two bounds the mask equals [bound - 1] and nothing is ever
     rejected, so those streams are identical to the modulo era. *)
  let mask = mask_above (bound - 1) in
  let x = ref bound in
  while !x >= bound do
    x := Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask
  done;
  !x

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range (hi < lo)";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] float t bound =
  (* 53 random bits -> uniform float in [0,1). *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int x /. 9007199254740992.0 *. bound

let bernoulli t p = float t 1.0 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick_weighted t items =
  let total = Array.fold_left (fun acc (_, w) -> acc +. Float.max w 0.0) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.pick_weighted: no positive weight";
  let target = float t total in
  let n = Array.length items in
  let rec go i acc =
    if i = n - 1 then fst items.(i)
    else
      let acc = acc +. Float.max (snd items.(i)) 0.0 in
      if target < acc then fst items.(i) else go (i + 1) acc
  in
  go 0 0.0

let geometric t p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Inverse CDF; u = 0 maps to 0 failures.  For tiny [p] the ratio can
       exceed [max_int] (and [int_of_float] on such floats is unspecified),
       so clamp before truncating; NaN cannot arise (u < 1, 0 < p < 1) but
       is mapped to 0 defensively all the same. *)
    let x = Float.floor (log1p (-.u) /. log1p (-.p)) in
    if Float.is_nan x then 0
    else if x >= float_of_int max_int then max_int
    else if x <= 0.0 then 0
    else int_of_float x

let[@inline] pareto t ~alpha ~xmin =
  if not (alpha > 0.0 && xmin > 0.0) then
    invalid_arg "Rng.pareto: alpha and xmin must be positive";
  let u = 1.0 -. float t 1.0 in
  xmin /. (u ** (1.0 /. alpha))

let[@inline] exponential t ~mean =
  if not (mean > 0.0) then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u
