type t = int array
(* Invariant: length = Field.count; slot i holds the value of
   [Field.of_index i], truncated to the field width. *)

let zero = Array.make Field.count 0

let truncate f v = v land Field.full_mask f

let make bindings =
  let a = Array.make Field.count 0 in
  List.iter (fun (f, v) -> a.(Field.index f) <- truncate f v) bindings;
  a

let get (t : t) f = t.(Field.index f)

let set t f v =
  let a = Array.copy t in
  a.(Field.index f) <- truncate f v;
  a

let update t bindings =
  match bindings with
  | [] -> t
  | _ ->
      let a = Array.copy t in
      List.iter (fun (f, v) -> a.(Field.index f) <- truncate f v) bindings;
      a

(* Monomorphic slot-by-slot comparison: both arrays have length
   [Field.count] by invariant, and avoiding polymorphic [compare] keeps the
   per-packet cache probes allocation- and call-free.  A top-level loop,
   not a local [let rec]: without flambda a local closure over [a] and [b]
   is allocated on every call, and every key in a bucket chain pays it. *)
let rec equal_from a b i =
  i >= Field.count
  || (Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_from a b (i + 1))

let equal a b = a == b || equal_from a b 0

let compare = Stdlib.compare

(* FNV-1a over the slots, then an avalanche.  FNV's multiply only carries
   upwards, so bit k of the raw accumulator depends on bits 0..k of the
   slots alone; [Hashtbl] buckets by the low bits and a prefix mask zeroes
   the low bits of IP fields, so without [mix] masked keys pile into a
   handful of buckets.  Accumulator-passing loop: no ref cell, no closure.
   [unsafe_get] is fine — length = Field.count by invariant. *)
let rec hash_loop t i h =
  if i >= Field.count then Gf_util.Bitops.mix h
  else hash_loop t (i + 1) ((h lxor Array.unsafe_get t i) * 0x100000001b3)

let hash t = hash_loop t 0 0x3bf29ce484222325

(* The annotation matters: unannotated, [t.(i)] compiles as a generic
   ['a array] read (float-array tag check, boxing path) behind a call. *)
let[@inline] slot (t : t) i = t.(i)

let to_array t = Array.copy t

(* Slot i's all-ones width mask, so [of_array] truncates with one read. *)
let widths = Array.map Field.full_mask Field.all

let of_array a =
  if Array.length a <> Field.count then invalid_arg "Flow.of_array";
  let t = Array.make Field.count 0 in
  for i = 0 to Field.count - 1 do
    t.(i) <- a.(i) land widths.(i)
  done;
  t

(* Single-pass masked copy: AND can only clear bits, so the result needs no
   re-truncation (unlike [of_array]).  This is [Mask.apply]'s engine. *)
let land_array t m = Array.init Field.count (fun i -> t.(i) land m.(i))

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp fmt t =
  let first = ref true in
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        if not !first then Format.pp_print_char fmt ' ';
        first := false;
        Format.fprintf fmt "%s=%#x" (Field.name (Field.of_index i)) v
      end)
    t;
  if !first then Format.pp_print_string fmt "<zero>"

let to_string t = Format.asprintf "%a" pp t
