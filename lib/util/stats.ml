module Acc = struct
  (* Every field is a float, so OCaml stores the record flat: an [add] is
     plain stores, with no float box and no write barrier.  The count is a
     float too; counts below 2^53 are exact, so every mean and variance is
     the one an int count gives. *)
  type t = {
    mutable count : float;
    mutable total : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0.0; total = 0.0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  (* Welford's online algorithm keeps the variance numerically stable. *)
  let add t x =
    t.count <- t.count +. 1.0;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  (* Chan et al.'s pairwise update: merging per-domain accumulators must
     give the same mean/variance as feeding all samples to one accumulator
     (up to float rounding). *)
  let merge ~into src =
    if src.count > 0.0 then
      if into.count = 0.0 then begin
        into.count <- src.count;
        into.total <- src.total;
        into.mean <- src.mean;
        into.m2 <- src.m2;
        into.min <- src.min;
        into.max <- src.max
      end
      else begin
        let na = into.count and nb = src.count in
        let n = na +. nb in
        let delta = src.mean -. into.mean in
        into.mean <- into.mean +. (delta *. nb /. n);
        into.m2 <- into.m2 +. src.m2 +. (delta *. delta *. na *. nb /. n);
        into.count <- n;
        into.total <- into.total +. src.total;
        if src.min < into.min then into.min <- src.min;
        if src.max > into.max then into.max <- src.max
      end

  let count t = int_of_float t.count
  let total t = t.total
  let mean t = if t.count = 0.0 then nan else t.mean
  let variance t = if t.count < 2.0 then nan else t.m2 /. (t.count -. 1.0)
  let min t = if t.count = 0.0 then nan else t.min
  let max t = if t.count = 0.0 then nan else t.max
end

(* NaN samples poison every downstream aggregate (and order arbitrarily
   under comparison), so the batch helpers drop them up front: a sensor
   that produced garbage for one sample shouldn't void the whole batch.
   Returns the input array itself when it is NaN-free (the common case —
   no copy on the hot path). *)
let drop_nan xs =
  let nans = Array.fold_left (fun n x -> if Float.is_nan x then n + 1 else n) 0 xs in
  if nans = 0 then xs
  else begin
    let out = Array.make (Array.length xs - nans) 0.0 in
    let j = ref 0 in
    Array.iter
      (fun x ->
        if not (Float.is_nan x) then begin
          out.(!j) <- x;
          incr j
        end)
      xs;
    out
  end

let percentile xs p =
  (* Not an assert: the bounds check must survive [-noassert] builds —
     an out-of-range (or NaN) [p] is a caller bug, not a tunable. *)
  if not (p >= 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %h not in [0, 100]" p);
  let xs = drop_nan xs in
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

let median xs = percentile xs 50.0
