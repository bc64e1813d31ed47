(* Tests for gigaflow.flow: Field, Flow, Mask, Fmatch, Headers. *)

open Helpers
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Masked_tbl = Gf_flow.Masked_tbl
module Headers = Gf_flow.Headers

let test_field_roundtrip () =
  Array.iter
    (fun f ->
      Alcotest.(check bool) "index roundtrip" true
        (Field.equal f (Field.of_index (Field.index f)));
      Alcotest.(check (option bool)) "name roundtrip" (Some true)
        (Option.map (Field.equal f) (Field.of_name (Field.name f))))
    Field.all

let test_field_count () =
  Alcotest.(check int) "ten fields (paper Fig. 6)" 10 Field.count

let test_field_widths () =
  Alcotest.(check int) "mac width" 48 (Field.width Field.Eth_src);
  Alcotest.(check int) "ip width" 32 (Field.width Field.Ip_dst);
  Alcotest.(check int) "vlan width" 12 (Field.width Field.Vlan);
  Array.iter
    (fun f ->
      Alcotest.(check int) "full mask bits" (Field.width f)
        (Gf_util.Bitops.popcount (Field.full_mask f)))
    Field.all

let test_flow_get_set () =
  let f = Flow.set Flow.zero Field.Ip_dst 0x0A000001 in
  Alcotest.(check int) "set/get" 0x0A000001 (Flow.get f Field.Ip_dst);
  Alcotest.(check int) "other untouched" 0 (Flow.get f Field.Ip_src);
  Alcotest.(check int) "original untouched" 0 (Flow.get Flow.zero Field.Ip_dst)

let test_flow_truncates () =
  let f = Flow.set Flow.zero Field.Ip_proto 0x1FF in
  Alcotest.(check int) "truncated to width" 0xFF (Flow.get f Field.Ip_proto)

let test_flow_array_roundtrip () =
  let f = Flow.make [ (Field.Vlan, 5); (Field.Tp_dst, 80) ] in
  Alcotest.check flow_testable "roundtrip" f (Flow.of_array (Flow.to_array f))

let test_mask_union_inter () =
  let a = Mask.exact_fields [ Field.Ip_dst ] in
  let b = Mask.exact_fields [ Field.Tp_dst ] in
  let u = Mask.union a b in
  Alcotest.(check bool) "union has both" true
    (Field.Set.mem Field.Ip_dst (Mask.fields u)
    && Field.Set.mem Field.Tp_dst (Mask.fields u));
  Alcotest.check mask_testable "inter empty" Mask.empty (Mask.inter a b)

let test_mask_prefix () =
  let m = Mask.prefix Field.Ip_dst 24 in
  Alcotest.(check int) "prefix value" 0xFFFFFF00 (Mask.get m Field.Ip_dst);
  Alcotest.(check int) "bits" 24 (Mask.bits m)

let test_mask_disjoint_subsume () =
  let a = Mask.exact_fields [ Field.Ip_dst ] in
  let b = Mask.prefix Field.Ip_dst 8 in
  Alcotest.(check bool) "not disjoint" false (Mask.disjoint a b);
  Alcotest.(check bool) "b subsumed by a" true (Mask.subsumes ~loose:b ~tight:a);
  Alcotest.(check bool) "a not subsumed by b" false (Mask.subsumes ~loose:a ~tight:b)

(* Property: union is commutative, associative, idempotent; inter dually. *)
let prop_mask_lattice =
  QCheck2.Test.make ~name:"mask union/inter lattice laws" ~count:200
    QCheck2.Gen.(triple gen_mask gen_mask gen_mask)
    (fun (a, b, c) ->
      Mask.equal (Mask.union a b) (Mask.union b a)
      && Mask.equal (Mask.union a (Mask.union b c)) (Mask.union (Mask.union a b) c)
      && Mask.equal (Mask.union a a) a
      && Mask.equal (Mask.inter a b) (Mask.inter b a)
      && Mask.equal (Mask.inter a (Mask.inter b c)) (Mask.inter (Mask.inter a b) c)
      && Mask.equal (Mask.inter a a) a
      && Mask.equal (Mask.inter a (Mask.union a b)) a
      && Mask.equal (Mask.union a (Mask.inter a b)) a)

(* Property: matches under a mask only depends on masked bits. *)
let prop_mask_matches_semantics =
  QCheck2.Test.make ~name:"mask matches = per-field masked equality" ~count:300
    QCheck2.Gen.(triple gen_mask gen_flow gen_flow)
    (fun (m, pat, flow) ->
      let expected =
        Array.for_all
          (fun f ->
            Mask.get m f land Flow.get pat f = (Mask.get m f land Flow.get flow f))
          Field.all
      in
      Mask.matches m ~pattern:pat flow = expected)

(* Property: subsumes means matching is weaker. *)
let prop_mask_subsumes_weaker =
  QCheck2.Test.make ~name:"subsumed mask matches superset of flows" ~count:300
    QCheck2.Gen.(triple gen_mask gen_flow gen_flow)
    (fun (m, pat, flow) ->
      let loose = Mask.inter m (Mask.prefix Field.Ip_dst 8) in
      (* loose has a subset of m's bits *)
      (not (Mask.matches m ~pattern:pat flow))
      || Mask.matches loose ~pattern:pat flow)

(* A flow with every field drawn over its full width: distinct keys under
   any mask wider than a few bits. *)
let wide_flow rng =
  Flow.make
    (List.map
       (fun f -> (f, Gf_util.Rng.int rng (1 lsl min 30 (Field.width f))))
       (Array.to_list Field.all))

let agrees tbl reference m probes =
  Masked_tbl.length tbl = Flow.Tbl.length reference
  && List.for_all
       (fun flow ->
         Masked_tbl.find_opt tbl flow = Flow.Tbl.find_opt reference (Mask.apply m flow))
       probes

(* Property: the masked-key table, probed with unmasked flows, answers
   exactly as a [Flow.Tbl] probed with the masked flow, through random
   inserts and removes (removes also by unmasked flow), starting from one
   bucket so the table resizes on the way. *)
let prop_masked_tbl_agrees =
  QCheck2.Test.make ~name:"masked tbl probe = Flow.Tbl" ~count:300
    QCheck2.Gen.(pair gen_mask (0 -- 1_000_000))
    (fun (m, seed) ->
      let rng = Gf_util.Rng.create seed in
      let tbl = Masked_tbl.create m 1 in
      let reference = Flow.Tbl.create 16 in
      for i = 1 to 200 do
        let flow = pool_flow rng in
        if Gf_util.Rng.int rng 4 = 0 then begin
          Masked_tbl.remove tbl flow;
          Flow.Tbl.remove reference (Mask.apply m flow)
        end
        else begin
          Masked_tbl.replace tbl (Mask.apply m flow) i;
          Flow.Tbl.replace reference (Mask.apply m flow) i
        end
      done;
      agrees tbl reference m (List.init 200 (fun _ -> pool_flow rng))
      && Masked_tbl.fold
           (fun key v ok -> ok && Flow.Tbl.find_opt reference key = Some v)
           tbl true)

(* Property: the miss filter never hides a binding as the table grows from
   one bucket through many resizes, is emptied again by removals, and is
   refilled.  [Tp_src] joins every mask so there are enough distinct keys
   to force the growth. *)
let prop_masked_tbl_filter_lifecycle =
  QCheck2.Test.make ~name:"masked tbl filter: grow, empty, refill" ~count:100
    QCheck2.Gen.(pair gen_mask (0 -- 1_000_000))
    (fun (m, seed) ->
      let m = Mask.union m (Mask.exact_fields [ Field.Tp_src ]) in
      let rng = Gf_util.Rng.create seed in
      let tbl = Masked_tbl.create m 1 in
      let reference = Flow.Tbl.create 16 in
      let flows = List.init 300 (fun _ -> wide_flow rng) in
      let probes = List.init 100 (fun _ -> wide_flow rng) @ flows in
      let fill () =
        List.iteri
          (fun i flow ->
            Masked_tbl.replace tbl (Mask.apply m flow) i;
            Flow.Tbl.replace reference (Mask.apply m flow) i)
          flows
      in
      fill ();
      (* From one bucket, five keys already mean four resizes. *)
      let grown = Masked_tbl.length tbl >= 5 && agrees tbl reference m probes in
      List.iter
        (fun flow ->
          Masked_tbl.remove tbl flow;
          Flow.Tbl.remove reference (Mask.apply m flow);
          (* Removing an absent key must leave the filter counts alone. *)
          Masked_tbl.remove tbl flow)
        flows;
      let emptied =
        Masked_tbl.length tbl = 0
        && List.for_all (fun flow -> Masked_tbl.find_opt tbl flow = None) probes
      in
      fill ();
      grown && emptied && agrees tbl reference m probes)

(* The filter keys on the widest mask word (here [Eth_dst]).  When every
   key shares that value the filter passes every probe with it, and the
   table must still answer from the chains alone. *)
let test_masked_tbl_shared_filter_value () =
  let m = Mask.exact_fields [ Field.Eth_dst; Field.Tp_dst ] in
  let tbl = Masked_tbl.create m 1 in
  let flow ?(eth = 0xaabbcc) tp = Flow.make [ (Field.Eth_dst, eth); (Field.Tp_dst, tp) ] in
  for tp = 0 to 499 do
    Masked_tbl.replace tbl (flow tp) tp
  done;
  for tp = 0 to 999 do
    Alcotest.(check (option int))
      (Printf.sprintf "tp %d" tp)
      (if tp < 500 then Some tp else None)
      (Masked_tbl.find_opt tbl (flow tp))
  done;
  Alcotest.(check (option int)) "other eth_dst" None (Masked_tbl.find_opt tbl (flow ~eth:1 7));
  for tp = 0 to 249 do
    Masked_tbl.remove tbl (flow tp)
  done;
  Alcotest.(check int) "half removed" 250 (Masked_tbl.length tbl);
  for tp = 0 to 499 do
    Alcotest.(check (option int))
      (Printf.sprintf "after removal, tp %d" tp)
      (if tp >= 250 then Some tp else None)
      (Masked_tbl.find_opt tbl (flow tp))
  done;
  Masked_tbl.replace tbl (flow 7) 70;
  Alcotest.(check (option int)) "re-inserted" (Some 70) (Masked_tbl.find_opt tbl (flow 7))

let test_fmatch_canonical () =
  let pattern = Flow.make [ (Field.Ip_dst, 0x0A0000FF) ] in
  let mask = Mask.prefix Field.Ip_dst 24 in
  let fm = Fmatch.v ~pattern ~mask in
  Alcotest.(check int) "pattern pre-masked" 0x0A000000
    (Flow.get (Fmatch.pattern fm) Field.Ip_dst)

let test_fmatch_any_exact () =
  let f = Flow.make [ (Field.Tp_dst, 443) ] in
  Alcotest.(check bool) "any matches" true (Fmatch.matches Fmatch.any f);
  Alcotest.(check bool) "exact matches itself" true (Fmatch.matches (Fmatch.exact f) f);
  let g = Flow.set f Field.Tp_src 1 in
  Alcotest.(check bool) "exact rejects different" false
    (Fmatch.matches (Fmatch.exact f) g)

let test_fmatch_of_fields () =
  let fm = Fmatch.of_fields [ (Field.Vlan, 7); (Field.Ip_proto, 6) ] in
  Alcotest.(check bool) "matches" true
    (Fmatch.matches fm (Flow.make [ (Field.Vlan, 7); (Field.Ip_proto, 6); (Field.Tp_dst, 9) ]));
  Alcotest.(check bool) "rejects" false
    (Fmatch.matches fm (Flow.make [ (Field.Vlan, 8); (Field.Ip_proto, 6) ]))

let test_fmatch_prefix () =
  let fm =
    Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(Headers.ipv4 "10.1.2.0") ~len:24
  in
  Alcotest.(check bool) "inside" true
    (Fmatch.matches fm (Flow.make [ (Field.Ip_dst, Headers.ipv4 "10.1.2.200") ]));
  Alcotest.(check bool) "outside" false
    (Fmatch.matches fm (Flow.make [ (Field.Ip_dst, Headers.ipv4 "10.1.3.1") ]))

let prop_fmatch_overlap_symmetric =
  QCheck2.Test.make ~name:"fmatch overlap is symmetric" ~count:300
    QCheck2.Gen.(pair gen_fmatch gen_fmatch)
    (fun (a, b) -> Fmatch.overlaps a b = Fmatch.overlaps b a)

let prop_fmatch_overlap_witness =
  (* If two matches overlap, the blended flow witnesses it. *)
  QCheck2.Test.make ~name:"overlap implies common witness" ~count:300
    QCheck2.Gen.(pair gen_fmatch gen_fmatch)
    (fun (a, b) ->
      if not (Fmatch.overlaps a b) then true
      else begin
        (* Build a witness: take a's pattern bits where a constrains, b's
           where b constrains (consistent on shared bits by overlap), zero
           elsewhere. *)
        let wa = Fmatch.mask a and wb = Fmatch.mask b in
        let values =
          Array.map
            (fun f ->
              let ma = Mask.get wa f and mb = Mask.get wb f in
              (Flow.get (Fmatch.pattern a) f land ma)
              lor (Flow.get (Fmatch.pattern b) f land mb land lnot ma))
            Field.all
        in
        let w = Flow.of_array values in
        Fmatch.matches a w && Fmatch.matches b w
      end)

let prop_fmatch_specific =
  QCheck2.Test.make ~name:"is_more_specific implies match subset" ~count:300
    QCheck2.Gen.(triple gen_fmatch gen_fmatch gen_flow)
    (fun (a, b, flow) ->
      (not (Fmatch.is_more_specific a ~than:b))
      || (not (Fmatch.matches a flow))
      || Fmatch.matches b flow)

(* ---------------- functorized tables, interning, update ---------------- *)

(* A structurally-equal but physically-distinct duplicate, so the tests
   below exercise the deep paths of [equal]/[hash], not the [==] shortcut. *)
let rebuild_flow f = Flow.of_array (Flow.to_array f)

let rebuild_mask m =
  Mask.make (List.map (fun f -> (f, Mask.get m f)) (Array.to_list Field.all))

let prop_flow_hash_equal_consistent =
  QCheck2.Test.make ~name:"flow equal duplicates hash alike" ~count:300 gen_flow
    (fun f ->
      let g = rebuild_flow f in
      (not (f == g)) && Flow.equal f g && Flow.hash f = Flow.hash g)

let prop_mask_hash_equal_consistent =
  QCheck2.Test.make ~name:"mask equal duplicates hash alike" ~count:300 gen_mask
    (fun m ->
      let n = rebuild_mask m in
      Mask.equal m n && Mask.hash m = Mask.hash n)

let prop_flow_tbl_roundtrip =
  (* The functorized table must find entries through structurally-equal
     keys — this is what the caches rely on after the Hashtbl.Make port. *)
  QCheck2.Test.make ~name:"Flow.Tbl finds structurally-equal keys" ~count:200
    QCheck2.Gen.(small_list gen_flow)
    (fun flows ->
      let tbl = Flow.Tbl.create 16 in
      List.iteri (fun i f -> Flow.Tbl.replace tbl f i) flows;
      List.for_all
        (fun f -> Flow.Tbl.find_opt tbl (rebuild_flow f) <> None)
        flows)

let prop_mask_intern_canonical =
  QCheck2.Test.make ~name:"Mask.intern canonicalizes duplicates" ~count:200
    gen_mask
    (fun m ->
      let c = Mask.intern m in
      (* Idempotent, physically canonical across rebuilt duplicates, and
         value-preserving. *)
      Mask.intern c == c
      && Mask.intern (rebuild_mask m) == c
      && Mask.equal c m)

let prop_flow_update_is_folded_set =
  let gen_bindings =
    QCheck2.Gen.(
      list_size (0 -- 4) (gen_field >>= fun f -> gen_value f >>= fun v -> pure (f, v)))
  in
  QCheck2.Test.make ~name:"Flow.update = folded Flow.set" ~count:300
    QCheck2.Gen.(pair gen_flow gen_bindings)
    (fun (flow, bindings) ->
      Flow.equal
        (Flow.update flow bindings)
        (List.fold_left (fun f (field, v) -> Flow.set f field v) flow bindings))

let test_flow_update_empty_no_copy () =
  let f = Flow.make [ (Field.Tp_dst, 443) ] in
  Alcotest.(check bool) "empty commit returns the flow itself" true
    (Flow.update f [] == f)

let test_mask_tbl_basic () =
  let tbl = Mask.Tbl.create 8 in
  let a = Mask.prefix Field.Ip_dst 24 in
  let b = Mask.exact_fields [ Field.Tp_dst ] in
  Mask.Tbl.replace tbl a 1;
  Mask.Tbl.replace tbl b 2;
  Alcotest.(check (option int)) "find a via duplicate" (Some 1)
    (Mask.Tbl.find_opt tbl (rebuild_mask a));
  Alcotest.(check (option int)) "find b" (Some 2) (Mask.Tbl.find_opt tbl b);
  Mask.Tbl.replace tbl (rebuild_mask a) 3;
  Alcotest.(check int) "replace via duplicate keeps one binding" 2
    (Mask.Tbl.length tbl);
  Alcotest.(check (option int)) "replaced" (Some 3) (Mask.Tbl.find_opt tbl a)

(* ---------------- hash spread, allocation-free equality ---------------- *)

(* Prefix-masked keys differ only in their high bits, while [Hashtbl]
   buckets by the low bits of the hash: an unmixed FNV puts every /16 key
   in one chain. *)
let masked_ip_dst_keys ~len ~n ~buckets =
  let rng = Gf_util.Rng.create 42 in
  let mask = Mask.prefix Field.Ip_dst len in
  let tbl = Flow.Tbl.create buckets in
  while Flow.Tbl.length tbl < n do
    let flow =
      Flow.make
        [
          (Field.Ip_dst, Gf_util.Rng.int rng (1 lsl 32));
          (Field.Tp_dst, Gf_util.Rng.int rng 65536);
        ]
    in
    Flow.Tbl.replace tbl (Mask.apply mask flow) ()
  done;
  tbl

let test_flow_hash_spreads_prefixes () =
  List.iter
    (fun (len, n, buckets) ->
      let stats = Flow.Tbl.stats (masked_ip_dst_keys ~len ~n ~buckets) in
      Alcotest.(check bool)
        (Printf.sprintf "/%d: %d keys, longest chain %d" len n
           stats.Hashtbl.max_bucket_length)
        true
        (stats.Hashtbl.max_bucket_length <= 8))
    [ (16, 169, 256); (24, 576, 1024) ]

(* The tuple table hashes only its mask's slots: the same /16 and /24 keys
   must spread as well there. *)
let test_masked_tbl_spreads_prefixes () =
  List.iter
    (fun (len, n, buckets) ->
      let mask = Mask.prefix Field.Ip_dst len in
      let tbl = Masked_tbl.create mask buckets in
      Flow.Tbl.iter
        (fun key () -> Masked_tbl.replace tbl key ())
        (masked_ip_dst_keys ~len ~n ~buckets);
      Alcotest.(check int) (Printf.sprintf "/%d: keys" len) n (Masked_tbl.length tbl);
      Alcotest.(check bool)
        (Printf.sprintf "/%d: %d keys, longest chain %d" len n (Masked_tbl.max_chain tbl))
        true
        (Masked_tbl.max_chain tbl <= 8))
    [ (16, 169, 256); (24, 576, 1024) ]

let test_masked_tbl_rejects_unmasked_key () =
  let tbl = Masked_tbl.create (Mask.prefix Field.Ip_dst 24) 4 in
  Alcotest.check_raises "unmasked key"
    (Invalid_argument "Masked_tbl.replace: key is not a masked pattern") (fun () ->
      Masked_tbl.replace tbl (Flow.make [ (Field.Ip_dst, 0x0A000001) ]) ())

let test_mask_hash_spreads_prefixes () =
  let tbl = Mask.Tbl.create 16 in
  for len = 0 to 32 do
    Mask.Tbl.replace tbl (Mask.prefix Field.Ip_dst len) len
  done;
  let stats = Mask.Tbl.stats tbl in
  Alcotest.(check int) "33 masks" 33 (Mask.Tbl.length tbl);
  Alcotest.(check bool)
    (Printf.sprintf "longest chain %d" stats.Hashtbl.max_bucket_length)
    true
    (stats.Hashtbl.max_bucket_length <= 8)

(* Every probe of a bucket chain compares keys, so equality must not
   allocate.  Only the two [Gc.minor_words] reads may box. *)
let test_equal_allocation_free () =
  let f = Flow.make [ (Field.Ip_dst, 0x0A000001); (Field.Tp_dst, 80) ] in
  let g = rebuild_flow f in
  let m = Mask.prefix Field.Ip_dst 24 in
  let n = rebuild_mask m in
  Alcotest.(check bool) "flows equal, distinct" true (Flow.equal f g && f != g);
  Alcotest.(check bool) "masks equal, distinct" true (Mask.equal m n && m != n);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Flow.equal f g));
    ignore (Sys.opaque_identity (Mask.equal m n))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words" words) true (words <= 4.)

(* [Fmatch.v] interns its mask on every install, so re-interning a mask
   already in the table must allocate nothing: no closure for the lock,
   no option for the probe.  [Mutex.protect] and [Tbl.find_opt] cost 6
   words a call. *)
let test_mask_intern_allocation_free () =
  let m = Mask.intern (Mask.prefix Field.Ip_src 20) in
  let n = rebuild_mask m in
  let words =
    Helpers.minor_words (fun () ->
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (Mask.intern n))
        done)
  in
  Alcotest.(check bool) "canonical" true (Mask.intern n == m);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* Every TSS walk is mostly missing probes: a miss, whether the filter or
   the chain answers it, must allocate nothing.  Net of the cost of the
   [Gc.minor_words] reads themselves, measured back to back. *)
let test_masked_tbl_miss_allocation_free () =
  let m = Mask.union (Mask.prefix Field.Ip_dst 24) (Mask.exact_fields [ Field.Tp_dst ]) in
  let tbl = Masked_tbl.create m 1 in
  for i = 0 to 99 do
    Masked_tbl.replace tbl
      (Flow.make [ (Field.Ip_dst, 0x0A000000 lor (i lsl 8)); (Field.Tp_dst, 80) ])
      i
  done;
  let probes =
    Array.init 64 (fun i ->
        (* Even i: an absent /24 (filter miss); odd i: a present /24 with
           an absent port (chain miss, unless the filter cell collides). *)
        let net = if i land 1 = 0 then 0x0B000000 lor (i lsl 8) else 0x0A000000 lor (i lsl 8) in
        Flow.make [ (Field.Ip_dst, net lor 7); (Field.Tp_dst, 443) ])
  in
  Array.iter (fun p -> assert (Masked_tbl.find_opt tbl p = None)) probes;
  let r0 = Gc.minor_words () in
  let r1 = Gc.minor_words () in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Sys.opaque_identity (Masked_tbl.find_opt tbl probes.(i land 63)))
  done;
  let words = Gc.minor_words () -. before -. (r1 -. r0) in
  Alcotest.(check (float 0.)) "minor words" 0. words

let test_headers_ipv4 () =
  Alcotest.(check int) "parse" 0x0A000001 (Headers.ipv4 "10.0.0.1");
  Alcotest.(check string) "print" "10.0.0.1" (Headers.ipv4_to_string 0x0A000001);
  Alcotest.check_raises "reject malformed" (Invalid_argument "Headers.ipv4: 10.0.0")
    (fun () -> ignore (Headers.ipv4 "10.0.0"));
  Alcotest.check_raises "reject out of range" (Invalid_argument "Headers.ipv4: 256.0.0.1")
    (fun () -> ignore (Headers.ipv4 "256.0.0.1"))

let test_headers_mac () =
  let m = Headers.mac "aa:bb:cc:00:11:22" in
  Alcotest.(check string) "roundtrip" "aa:bb:cc:00:11:22" (Headers.mac_to_string m)

let test_headers_tcp () =
  let f =
    Headers.tcp ~src:(Headers.ipv4 "10.0.0.1") ~dst:(Headers.ipv4 "10.0.0.2")
      ~sport:1234 ~dport:80 ()
  in
  Alcotest.(check int) "ethertype" Headers.ethertype_ipv4 (Flow.get f Field.Eth_type);
  Alcotest.(check int) "proto" Headers.proto_tcp (Flow.get f Field.Ip_proto);
  Alcotest.(check int) "dport" 80 (Flow.get f Field.Tp_dst)

let suite =
  [
    ("field roundtrips", `Quick, test_field_roundtrip);
    ("field count", `Quick, test_field_count);
    ("field widths", `Quick, test_field_widths);
    ("flow get/set", `Quick, test_flow_get_set);
    ("flow truncation", `Quick, test_flow_truncates);
    ("flow array roundtrip", `Quick, test_flow_array_roundtrip);
    ("mask union/inter", `Quick, test_mask_union_inter);
    ("mask prefix", `Quick, test_mask_prefix);
    ("mask disjoint/subsumes", `Quick, test_mask_disjoint_subsume);
    ("fmatch canonical", `Quick, test_fmatch_canonical);
    ("fmatch any/exact", `Quick, test_fmatch_any_exact);
    ("fmatch of_fields", `Quick, test_fmatch_of_fields);
    ("fmatch prefix", `Quick, test_fmatch_prefix);
    ("flow update empty no copy", `Quick, test_flow_update_empty_no_copy);
    ("mask tbl basics", `Quick, test_mask_tbl_basic);
    ("flow hash spreads prefixes", `Quick, test_flow_hash_spreads_prefixes);
    ("mask hash spreads prefixes", `Quick, test_mask_hash_spreads_prefixes);
    ("masked tbl spreads prefixes", `Quick, test_masked_tbl_spreads_prefixes);
    ("masked tbl rejects unmasked key", `Quick, test_masked_tbl_rejects_unmasked_key);
    ("equal allocation-free", `Quick, test_equal_allocation_free);
    ("mask intern allocation-free", `Quick, test_mask_intern_allocation_free);
    ("masked tbl shared filter value", `Quick, test_masked_tbl_shared_filter_value);
    ("masked tbl miss allocation-free", `Quick, test_masked_tbl_miss_allocation_free);
    ("headers ipv4", `Quick, test_headers_ipv4);
    ("headers mac", `Quick, test_headers_mac);
    ("headers tcp", `Quick, test_headers_tcp);
  ]

let props =
  [
    prop_mask_lattice;
    prop_mask_matches_semantics;
    prop_mask_subsumes_weaker;
    prop_masked_tbl_agrees;
    prop_masked_tbl_filter_lifecycle;
    prop_fmatch_overlap_symmetric;
    prop_fmatch_overlap_witness;
    prop_fmatch_specific;
    prop_flow_hash_equal_consistent;
    prop_mask_hash_equal_consistent;
    prop_flow_tbl_roundtrip;
    prop_mask_intern_canonical;
    prop_flow_update_is_folded_set;
  ]
