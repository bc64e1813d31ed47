type t = {
  n : int;
  s : float;
  cdf : float array;  (* for pmf / rank queries *)
  prob : float array;  (* alias-method acceptance thresholds *)
  alias : int array;
}

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be > 0";
  if not (s >= 0.0) then invalid_arg "Zipf.create: s must be >= 0";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total
  done;
  (* Walker's alias table (Vose's stable construction): sampling is two
     array reads per draw instead of a binary search over the CDF — the
     trace generator draws one rank per packet, so this is on the streaming
     engine's per-packet path. *)
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let scaled =
    Array.init n (fun r ->
        let p = if r = 0 then cdf.(0) else cdf.(r) -. cdf.(r - 1) in
        p *. float_of_int n)
  in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for r = 0 to n - 1 do
    if scaled.(r) < 1.0 then begin
      small.(!ns) <- r;
      incr ns
    end
    else begin
      large.(!nl) <- r;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    let l = small.(!ns) in
    let g = large.(!nl - 1) in
    prob.(l) <- scaled.(l);
    alias.(l) <- g;
    scaled.(g) <- scaled.(g) -. (1.0 -. scaled.(l));
    if scaled.(g) < 1.0 then begin
      decr nl;
      small.(!ns) <- g;
      incr ns
    end
  done;
  (* Leftovers (either list) are 1.0 up to rounding. *)
  { n; s; cdf; prob; alias }

let n t = t.n
let exponent t = t.s

(* One uniform draw serves both the column pick and the acceptance test
   (the standard trick), so the RNG stream advances exactly as the old
   CDF binary search did — one draw per sample. *)
let sample t rng =
  let u = Rng.float rng (float_of_int t.n) in
  let i = int_of_float u in
  let i = if i >= t.n then t.n - 1 else i in
  if u -. float_of_int i < t.prob.(i) then i else t.alias.(i)

let pmf t r =
  if r < 0 || r >= t.n then invalid_arg "Zipf.pmf: rank outside 0..n-1";
  if r = 0 then t.cdf.(0) else t.cdf.(r) -. t.cdf.(r - 1)
