(* Tests for gigaflow.util: Rng, Zipf, Stats, Tablefmt, Bitops. *)

module Rng = Gf_util.Rng
module Zipf = Gf_util.Zipf
module Stats = Gf_util.Stats
module Tablefmt = Gf_util.Tablefmt
module Bitops = Gf_util.Bitops
module Json = Gf_util.Json

let raises_invalid = Helpers.raises_invalid

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split_differs () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_rng_int_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_rng_int_in () =
  let rng = Rng.create 2 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_rng_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_rng_bernoulli_bias () =
  let rng = Rng.create 4 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if Float.abs (p -. 0.3) > 0.02 then Alcotest.failf "bias off: %f" p

let test_rng_pick_weighted () =
  let rng = Rng.create 5 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let x = Rng.pick_weighted rng [| ("a", 1.0); ("b", 3.0); ("c", 0.0) |] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check int) "zero weight never picked" 0 (get "c");
  let ratio = float_of_int (get "b") /. float_of_int (get "a") in
  if Float.abs (ratio -. 3.0) > 0.3 then Alcotest.failf "weight ratio off: %f" ratio

let test_rng_shuffle_permutation () =
  let rng = Rng.create 6 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pareto_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 1_000 do
    let v = Rng.pareto rng ~alpha:1.2 ~xmin:2.0 in
    if v < 2.0 then Alcotest.failf "pareto below xmin: %f" v
  done

let test_rng_geometric () =
  let rng = Rng.create 9 in
  Alcotest.(check int) "p=1 always 0" 0 (Rng.geometric rng 1.0);
  let acc = Stats.Acc.create () in
  for _ = 1 to 20_000 do
    Stats.Acc.add acc (float_of_int (Rng.geometric rng 0.5))
  done;
  (* mean of Geom(0.5) failures = (1-p)/p = 1 *)
  if Float.abs (Stats.Acc.mean acc -. 1.0) > 0.05 then
    Alcotest.failf "geometric mean off: %f" (Stats.Acc.mean acc)

let test_rng_int_uniform_exact () =
  (* Rejection sampling makes [int] exactly uniform for every bound; the
     modulo-era sampler was detectably biased only for huge bounds, so the
     distribution check runs alongside a structural one below. *)
  let rng = Rng.create 11 in
  let bound = 6 in
  let n = 60_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int n /. float_of_int bound in
  let sigma = sqrt (expected *. (1.0 -. (1.0 /. float_of_int bound))) in
  Array.iteri
    (fun v c ->
      if Float.abs (float_of_int c -. expected) > 5.0 *. sigma then
        Alcotest.failf "value %d count %d outside 5 sigma of %.0f" v c expected)
    counts

let test_rng_int_huge_bound () =
  (* The modulo sampler collapsed bounds near [max_int] into the low half
     of the range; rejection sampling must cover the high half too. *)
  let rng = Rng.create 12 in
  let top = ref 0 in
  for _ = 1 to 1_000 do
    let v = Rng.int rng max_int in
    if v < 0 || v >= max_int then Alcotest.failf "out of range: %d" v;
    top := max !top v
  done;
  Alcotest.(check bool) "reaches the high half" true (!top > max_int / 2)

let test_rng_int_pow2_stream_compat () =
  (* For power-of-two bounds the mask equals [bound - 1] and nothing is
     rejected — those streams must be identical to the modulo era
     ((bits64 >> 2) land (bound - 1)), keeping old fixed-seed runs valid. *)
  let a = Rng.create 13 and b = Rng.create 13 in
  for _ = 1 to 1_000 do
    let want =
      Int64.to_int (Int64.shift_right_logical (Rng.bits64 b) 2) land 15
    in
    Alcotest.(check int) "same stream" want (Rng.int a 16)
  done

let test_rng_geometric_edges () =
  let rng = Rng.create 14 in
  Alcotest.(check int) "p=1.0 is always 0" 0 (Rng.geometric rng 1.0);
  (* Tiny p: the inverse-CDF ratio can exceed [max_int]; the clamp must
     keep results in [0, max_int] instead of the old unspecified
     [int_of_float] overflow (which produced negative sizes). *)
  let biggest = ref 0 in
  for _ = 1 to 200 do
    let v = Rng.geometric rng 1e-9 in
    if v < 0 then Alcotest.failf "overflowed to %d" v;
    biggest := max !biggest v
  done;
  Alcotest.(check bool) "tiny p reaches large counts" true (!biggest > 1_000_000)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:100 ~s:1.1 in
  let total = ref 0.0 in
  for r = 0 to 99 do
    total := !total +. Zipf.pmf z r
  done;
  if Float.abs (!total -. 1.0) > 1e-9 then Alcotest.failf "pmf sum %f" !total

let test_zipf_monotone () =
  let z = Zipf.create ~n:50 ~s:0.9 in
  for r = 1 to 49 do
    if Zipf.pmf z r > Zipf.pmf z (r - 1) +. 1e-12 then
      Alcotest.failf "pmf not monotone at %d" r
  done

let test_zipf_sampling_matches_pmf () =
  let z = Zipf.create ~n:10 ~s:1.0 in
  let rng = Rng.create 10 in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  for r = 0 to 9 do
    let expected = Zipf.pmf z r *. float_of_int n in
    let got = float_of_int counts.(r) in
    if Float.abs (got -. expected) > 5.0 *. sqrt expected +. 10.0 then
      Alcotest.failf "rank %d: got %f expected %f" r got expected
  done

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:4 ~s:0.0 in
  for r = 0 to 3 do
    if Float.abs (Zipf.pmf z r -. 0.25) > 1e-9 then Alcotest.fail "not uniform"
  done

let test_zipf_rejects_empty () =
  raises_invalid "n = 0" (fun () -> Zipf.create ~n:0 ~s:1.0);
  raises_invalid "n < 0" (fun () -> Zipf.create ~n:(-3) ~s:1.0)

let test_zipf_rejects_negative_s () =
  raises_invalid "s < 0" (fun () -> Zipf.create ~n:10 ~s:(-0.5));
  raises_invalid "s nan" (fun () -> Zipf.create ~n:10 ~s:Float.nan)

let test_zipf_pmf_range_checked () =
  let z = Zipf.create ~n:4 ~s:1.0 in
  raises_invalid "rank -1" (fun () -> Zipf.pmf z (-1));
  raises_invalid "rank n" (fun () -> Zipf.pmf z 4)

let test_acc_basic () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.Acc.count acc);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Acc.mean acc);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.Acc.total acc);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Acc.min acc);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Acc.max acc);
  (* var of {1,2,3,4} = 5/3 *)
  Alcotest.(check (float 1e-9)) "variance" (5.0 /. 3.0) (Stats.Acc.variance acc)

let test_acc_empty_nan () =
  let acc = Stats.Acc.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Acc.mean acc))

let test_percentile () =
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 15.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "median" 35.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p25" 20.0 (Stats.percentile xs 25.0)

let test_percentile_interpolates () =
  let xs = [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "p50 interp" 5.0 (Stats.percentile xs 50.0)

let test_percentile_rejects_bad_p () =
  let xs = [| 1.0; 2.0 |] in
  List.iter
    (fun p ->
      match Stats.percentile xs p with
      | exception Invalid_argument _ -> ()
      | v -> Alcotest.failf "percentile accepted p=%h -> %f" p v)
    [ -1.0; 100.5; Float.nan; Float.infinity; Float.neg_infinity ]

let test_percentile_ignores_nan () =
  (* One garbage sample must neither poison the result nor (via a
     polymorphic-compare sort) scramble the order statistics. *)
  let xs = [| Float.nan; 3.0; 1.0; Float.nan; 2.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile xs 100.0);
  Alcotest.(check bool) "input not modified" true (Float.is_nan xs.(0));
  Alcotest.(check bool) "all-nan is nan" true
    (Float.is_nan (Stats.percentile [| Float.nan; Float.nan |] 50.0));
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile [||] 50.0))

let test_batch_mean_stddev_edges () =
  Alcotest.(check (float 1e-9)) "mean skips nan" 2.0
    (Stats.mean [| 1.0; Float.nan; 3.0 |]);
  Alcotest.(check bool) "mean of empty is nan" true
    (Float.is_nan (Stats.mean [||]));
  Alcotest.(check (float 0.0)) "single-sample stddev is 0" 0.0
    (Stats.stddev [| 5.0 |]);
  Alcotest.(check (float 1e-9)) "stddev skips nan" (Float.sqrt 2.0)
    (Stats.stddev [| 1.0; Float.nan; 3.0 |]);
  Alcotest.(check bool) "stddev of empty is nan" true
    (Float.is_nan (Stats.stddev [||]));
  Alcotest.(check bool) "stddev of all-nan is nan" true
    (Float.is_nan (Stats.stddev [| Float.nan |]))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 2.5; 9.9; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h);
  Alcotest.(check int) "first bin has clamped low" 3 counts.(0);
  Alcotest.(check int) "last bin has clamped high" 2 counts.(4);
  let lo, hi = Stats.Histogram.bin_bounds h 1 in
  Alcotest.(check (float 1e-9)) "bin lo" 2.0 lo;
  Alcotest.(check (float 1e-9)) "bin hi" 4.0 hi

let test_histogram_rejects_bad_shape () =
  raises_invalid "bins 0" (fun () -> Stats.Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0);
  raises_invalid "hi = lo" (fun () -> Stats.Histogram.create ~lo:1.0 ~hi:1.0 ~bins:4);
  raises_invalid "hi < lo" (fun () -> Stats.Histogram.create ~lo:2.0 ~hi:1.0 ~bins:4)

let test_histogram_bin_bounds_range_checked () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  raises_invalid "bin -1" (fun () -> Stats.Histogram.bin_bounds h (-1));
  raises_invalid "bin 5" (fun () -> Stats.Histogram.bin_bounds h 5)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec at i = i + m <= n && (String.sub haystack i m = needle || at (i + 1)) in
  at 0

let test_tablefmt_renders () =
  let t = Tablefmt.create ~title:"T" [ "name"; "value" ] in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_sep t;
  Tablefmt.add_row t [ "beta"; "22" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains alpha" true (contains s "alpha" && contains s "22")

let test_tablefmt_bad_row () =
  let t = Tablefmt.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: wrong number of cells")
    (fun () -> Tablefmt.add_row t [ "only-one" ])

let test_fmt_numbers () =
  Alcotest.(check string) "int" "12,345" (Tablefmt.fmt_int 12345);
  Alcotest.(check string) "int small" "7" (Tablefmt.fmt_int 7);
  Alcotest.(check string) "neg" "-1,000" (Tablefmt.fmt_int (-1000));
  Alcotest.(check string) "pct" "51.40%" (Tablefmt.fmt_pct 0.514);
  Alcotest.(check string) "times" "450.0x" (Tablefmt.fmt_times 450.0);
  Alcotest.(check string) "si M" "14.7M" (Tablefmt.fmt_si 14_700_000.0);
  Alcotest.(check string) "si K" "48.0K" (Tablefmt.fmt_si 48_000.0)

let test_bitops () =
  Alcotest.(check int) "mask width" 0xFF (Bitops.mask_of_width 8);
  Alcotest.(check int) "mask zero" 0 (Bitops.mask_of_width 0);
  Alcotest.(check int) "prefix 24" 0xFFFFFF00 (Bitops.prefix_mask ~width:32 24);
  Alcotest.(check int) "prefix full" 0xFFFFFFFF (Bitops.prefix_mask ~width:32 32);
  Alcotest.(check int) "prefix none" 0 (Bitops.prefix_mask ~width:32 0);
  Alcotest.(check int) "popcount" 3 (Bitops.popcount 0b10101);
  Alcotest.(check int) "popcount 0" 0 (Bitops.popcount 0);
  Alcotest.(check int) "popcount mac" 48 (Bitops.popcount 0xFFFFFFFFFFFF);
  Alcotest.(check int) "popcount max_int" 62 (Bitops.popcount max_int);
  Alcotest.(check int) "popcount -1" 63 (Bitops.popcount (-1));
  Alcotest.(check bool) "subset yes" true (Bitops.is_subset ~sub:0b101 ~super:0b111);
  Alcotest.(check bool) "subset no" false (Bitops.is_subset ~sub:0b1000 ~super:0b111)

let test_bitops_range_checked () =
  Alcotest.(check int) "mask 62" max_int (Bitops.mask_of_width 62);
  raises_invalid "mask width -1" (fun () -> Bitops.mask_of_width (-1));
  raises_invalid "mask width 63" (fun () -> Bitops.mask_of_width 63);
  raises_invalid "prefix length -1" (fun () -> Bitops.prefix_mask ~width:32 (-1));
  raises_invalid "prefix longer than width" (fun () -> Bitops.prefix_mask ~width:32 33);
  raises_invalid "prefix of a 63-bit field" (fun () -> Bitops.prefix_mask ~width:63 8)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("type", Json.Str "sample");
        ("packet", Json.Int 10615);
        ("rate", Json.Float 0.8963);
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("levels", Json.List [ Json.Str "emc"; Json.Str "gigaflow" ]);
        ("quote", Json.Str "a\"b\\c\nd");
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf -> null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "object field"
    {|{"p99":null}|}
    (Json.to_string (Json.Obj [ ("p99", Json.Float Float.neg_infinity) ]))

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; {|{"a":}|}; "12 34"; "tru" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    bad

let test_json_accessors () =
  let v = Json.Obj [ ("n", Json.Int 3); ("f", Json.Float 1.5); ("s", Json.Str "x") ] in
  Alcotest.(check (option int)) "int" (Some 3)
    (Option.bind (Json.member "n" v) Json.to_int_opt);
  Alcotest.(check bool) "int widens" true
    (Option.bind (Json.member "n" v) Json.to_float_opt = Some 3.0);
  Alcotest.(check (option string)) "str" (Some "x")
    (Option.bind (Json.member "s" v) Json.to_string_opt);
  Alcotest.(check bool) "missing" true (Json.member "zz" v = None);
  Alcotest.(check bool) "non-object" true (Json.member "n" (Json.Int 1) = None)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng copy", `Quick, test_rng_copy_independent);
    ("rng split", `Quick, test_rng_split_differs);
    ("rng int range", `Quick, test_rng_int_range);
    ("rng int_in range", `Quick, test_rng_int_in);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng bernoulli bias", `Quick, test_rng_bernoulli_bias);
    ("rng pick_weighted", `Quick, test_rng_pick_weighted);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    ("rng pareto bounds", `Quick, test_rng_pareto_bounds);
    ("rng geometric", `Quick, test_rng_geometric);
    ("rng int exact uniformity", `Quick, test_rng_int_uniform_exact);
    ("rng int huge bound", `Quick, test_rng_int_huge_bound);
    ("rng int pow2 stream compat", `Quick, test_rng_int_pow2_stream_compat);
    ("rng geometric edge cases", `Quick, test_rng_geometric_edges);
    ("zipf pmf sums to 1", `Quick, test_zipf_pmf_sums_to_one);
    ("zipf pmf monotone", `Quick, test_zipf_monotone);
    ("zipf sampling matches pmf", `Quick, test_zipf_sampling_matches_pmf);
    ("zipf s=0 uniform", `Quick, test_zipf_uniform_when_s0);
    ("zipf rejects n <= 0", `Quick, test_zipf_rejects_empty);
    ("zipf rejects s < 0", `Quick, test_zipf_rejects_negative_s);
    ("zipf pmf range checked", `Quick, test_zipf_pmf_range_checked);
    ("stats acc", `Quick, test_acc_basic);
    ("stats acc empty", `Quick, test_acc_empty_nan);
    ("stats percentile", `Quick, test_percentile);
    ("stats percentile interpolation", `Quick, test_percentile_interpolates);
    ("stats percentile rejects bad p", `Quick, test_percentile_rejects_bad_p);
    ("stats percentile ignores nan", `Quick, test_percentile_ignores_nan);
    ("stats batch mean/stddev edges", `Quick, test_batch_mean_stddev_edges);
    ("stats histogram", `Quick, test_histogram);
    ("stats histogram rejects bad shape", `Quick, test_histogram_rejects_bad_shape);
    ("stats histogram bin_bounds range checked", `Quick, test_histogram_bin_bounds_range_checked);
    ("tablefmt renders", `Quick, test_tablefmt_renders);
    ("tablefmt arity check", `Quick, test_tablefmt_bad_row);
    ("tablefmt numbers", `Quick, test_fmt_numbers);
    ("bitops", `Quick, test_bitops);
    ("bitops range checked", `Quick, test_bitops_range_checked);
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json non-finite -> null", `Quick, test_json_nonfinite_is_null);
    ("json parse errors", `Quick, test_json_parse_errors);
    ("json accessors", `Quick, test_json_accessors);
  ]
