type t = int array
(* Same representation as Flow.t: slot i masks [Field.of_index i]. *)

let truncate f v = v land Field.full_mask f

let empty = Array.make Field.count 0

let full = Array.map Field.full_mask Field.all

let of_array a =
  if Array.length a <> Field.count then invalid_arg "Mask.of_array";
  let t = Array.make Field.count 0 in
  for i = 0 to Field.count - 1 do
    t.(i) <- a.(i) land full.(i)
  done;
  t

let make bindings =
  let a = Array.make Field.count 0 in
  List.iter (fun (f, v) -> a.(Field.index f) <- truncate f v) bindings;
  a

let exact_fields fields =
  let a = Array.make Field.count 0 in
  List.iter (fun f -> a.(Field.index f) <- Field.full_mask f) fields;
  a

let prefix f len = make [ (f, Gf_util.Bitops.prefix_mask ~width:(Field.width f) len) ]

let get (t : t) f = t.(Field.index f)

(* Annotated for the same reason as [Flow.slot]: a plain int load, not a
   generic ['a array] read. *)
let slot (t : t) i = t.(i)

let set t f v =
  let a = Array.copy t in
  a.(Field.index f) <- truncate f v;
  a

let union a b = Array.init Field.count (fun i -> a.(i) lor b.(i))
let inter a b = Array.init Field.count (fun i -> a.(i) land b.(i))

(* Physical equality first: interned masks (see [intern]) make the common
   same-tuple comparison a single pointer check.  The slot loop is
   top-level for the same reason as [Flow.equal]'s. *)
let rec equal_from a b i =
  i >= Field.count
  || (Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_from a b (i + 1))

let equal a b = a == b || equal_from a b 0

let compare = Stdlib.compare

(* Same mixed FNV-1a as [Flow.hash]. *)
let rec hash_loop t i h =
  if i >= Field.count then Gf_util.Bitops.mix h
  else hash_loop t (i + 1) ((h lxor Array.unsafe_get t i) * 0x100000001b3)

let hash t = hash_loop t 0 0x3bf29ce484222325

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* Hash-consing: one canonical array per distinct mask value, so that tuple
   bookkeeping in the classifiers ([Tss.insert], [Oftable.rebuild]) hits the
   [==] fast path of [equal].  The table only ever holds distinct rule /
   consulted wildcards — a few hundred in the largest workloads — and is
   mutex-guarded because parallel replay domains intern concurrently. *)
let intern_lock = Mutex.create ()

let interned : t Tbl.t = Tbl.create 256

(* Locked and probed by hand: [Mutex.protect] would allocate a closure
   and [Tbl.find_opt] a [Some] on every call, and [Fmatch.v] interns on
   every install.  A hit allocates nothing. *)
let intern m =
  Mutex.lock intern_lock;
  match
    match Tbl.find interned m with
    | canonical -> canonical
    | exception Not_found ->
        Tbl.add interned m m;
        m
  with
  | canonical ->
      Mutex.unlock intern_lock;
      canonical
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock intern_lock;
      Printexc.raise_with_backtrace e bt

let () = List.iter (fun m -> ignore (intern m)) [ empty; full ]

let is_empty t = Array.for_all (fun v -> v = 0) t

let bits t = Array.fold_left (fun acc v -> acc + Gf_util.Bitops.popcount v) 0 t

let fields t =
  let s = ref Field.Set.empty in
  Array.iteri (fun i v -> if v <> 0 then s := Field.Set.add (Field.of_index i) !s) t;
  !s

let disjoint a b =
  let rec go i = i >= Field.count || ((a.(i) = 0 || b.(i) = 0) && go (i + 1)) in
  go 0

let subsumes ~loose ~tight =
  let rec go i =
    i >= Field.count || (loose.(i) land tight.(i) = loose.(i) && go (i + 1))
  in
  go 0

let apply t flow = Flow.land_array flow t

let matches t ~pattern flow =
  let rec go i =
    i >= Field.count
    ||
    let f = Field.of_index i in
    Int.equal (Flow.get pattern f land t.(i)) (Flow.get flow f land t.(i))
    && go (i + 1)
  in
  go 0

let pp fmt t =
  let first = ref true in
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        if not !first then Format.pp_print_char fmt ' ';
        first := false;
        let f = Field.of_index i in
        if v = Field.full_mask f then Format.fprintf fmt "%s=*exact*" (Field.name f)
        else Format.fprintf fmt "%s=%#x" (Field.name f) v
      end)
    t;
  if !first then Format.pp_print_string fmt "<any>"

let to_string t = Format.asprintf "%a" pp t
