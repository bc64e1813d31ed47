(* Log-linear (HDR-style) histogram.

   The positive axis from [lo] upwards is divided into octaves (powers of
   two), each octave into [sub] equal-width linear sub-buckets, so the
   relative width of any bucket is at most 1/sub — recorded quantiles are
   within that relative error of the exact order statistic.  Bucket layout
   is a pure function of (lo, sub, octaves), so two histograms with the same
   layout merge exactly by adding their count arrays: merging per-domain
   histograms is indistinguishable from recording the concatenated sample
   stream (this is what keeps tail quantiles honest across Parallel
   shards).

   [record] allocates nothing: a bucket-index computation (one log2) and
   integer/float mutations, cheap enough to stay always-on in the
   datapath's per-packet path.  The float aggregates sit in their own
   all-float record, which OCaml stores flat, so updating them boxes no
   float and runs no write barrier. *)

type moments = { mutable sum : float; mutable min_v : float; mutable max_v : float }

type t = {
  lo : float;  (* lower bound of the first log bucket; > 0 *)
  sub : int;  (* sub-buckets per octave *)
  octaves : int;
  counts : int array;  (* [0] underflow, then octaves*sub, last overflow *)
  mutable count : int;
  f : moments;
}

let default_lo = 0.1
let default_hi = 1.0e7
let default_sub = 32

let create ?(lo = default_lo) ?(hi = default_hi) ?(sub = default_sub) () =
  if not (lo > 0.0 && hi > lo) then invalid_arg "Histogram.create: need 0 < lo < hi";
  if sub < 1 then invalid_arg "Histogram.create: sub must be positive";
  let octaves = int_of_float (Float.ceil (Float.log2 (hi /. lo))) in
  let octaves = max 1 octaves in
  {
    lo;
    sub;
    octaves;
    counts = Array.make (2 + (octaves * sub)) 0;
    count = 0;
    f = { sum = 0.0; min_v = infinity; max_v = neg_infinity };
  }

let same_layout a b = a.lo = b.lo && a.sub = b.sub && a.octaves = b.octaves

let count t = t.count
let sum t = t.f.sum
let min_value t = if t.count = 0 then nan else t.f.min_v
let max_value t = if t.count = 0 then nan else t.f.max_v
let mean t = if t.count = 0 then 0.0 else t.f.sum /. float_of_int t.count

(* Bucket index for a sample.  Values below [lo] (including <= 0) land in
   the underflow bucket; values past the top octave clamp into overflow. *)
let index t x =
  if not (x >= t.lo) then 0
  else begin
    let e = int_of_float (Float.log2 (x /. t.lo)) in
    (* Guard the float rounding of log2 around exact powers of two. *)
    let e = if t.lo *. Float.ldexp 1.0 e > x then e - 1 else e in
    if e >= t.octaves then 1 + (t.octaves * t.sub)
    else begin
      let base = t.lo *. Float.ldexp 1.0 e in
      let s = int_of_float (float_of_int t.sub *. ((x /. base) -. 1.0)) in
      let s = if s < 0 then 0 else if s >= t.sub then t.sub - 1 else s in
      1 + (e * t.sub) + s
    end
  end

(* [record] with the bucket index precomputed (callers that record a
   constant value repeatedly hoist the log2 out of their per-sample
   path); [i] must equal [index t x]. *)
let record_at t i x =
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  let f = t.f in
  f.sum <- f.sum +. x;
  if x < f.min_v then f.min_v <- x;
  if x > f.max_v then f.max_v <- x

let record t x = record_at t (index t x) x

(* Bounds of bucket [i]: the underflow bucket spans [0, lo), log bucket
   (e, s) spans lo*2^e*[1 + s/sub, 1 + (s+1)/sub), overflow spans
   [lo*2^octaves, inf). *)
let bucket_bounds t i =
  if i = 0 then (0.0, t.lo)
  else if i = 1 + (t.octaves * t.sub) then
    (t.lo *. Float.ldexp 1.0 t.octaves, infinity)
  else begin
    let e = (i - 1) / t.sub and s = (i - 1) mod t.sub in
    let base = t.lo *. Float.ldexp 1.0 e in
    ( base *. (1.0 +. (float_of_int s /. float_of_int t.sub)),
      base *. (1.0 +. (float_of_int (s + 1) /. float_of_int t.sub)) )
  end

let bounds_of_value t x = bucket_bounds t (index t x)

(* Representative value of a bucket: its midpoint, clamped into the
   exactly-tracked [min, max] observed range so open-ended buckets (and the
   extremes) report real values. *)
let representative t i =
  let lo_b, hi_b = bucket_bounds t i in
  let mid =
    if hi_b = infinity then t.f.max_v
    else if i = 0 then t.lo /. 2.0
    else (lo_b +. hi_b) /. 2.0
  in
  let mid = if mid < t.f.min_v then t.f.min_v else mid in
  if mid > t.f.max_v then t.f.max_v else mid

(* Rank-based quantile: the value at rank ceil(q * count) (1-based), i.e.
   the smallest recorded value such that at least a fraction q of samples
   are <= it.  0.0 on an empty histogram. *)
let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let rec walk i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank then representative t i else walk (i + 1) cum
    in
    walk 0 0
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let merge ~into src =
  if not (same_layout into src) then
    invalid_arg "Histogram.merge: layouts differ";
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.count <- into.count + src.count;
  let f = into.f in
  f.sum <- f.sum +. src.f.sum;
  if src.f.min_v < f.min_v then f.min_v <- src.f.min_v;
  if src.f.max_v > f.max_v then f.max_v <- src.f.max_v

let copy t =
  {
    t with
    counts = Array.copy t.counts;
    f = { sum = t.f.sum; min_v = t.f.min_v; max_v = t.f.max_v };
  }

let iter_buckets f t =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo_b, hi_b = bucket_bounds t i in
        f ~lo:lo_b ~hi:hi_b ~count:c
      end)
    t.counts
