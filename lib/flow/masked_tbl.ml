(* A chained hash table specialised to one mask.  Keys are stored as masked
   patterns; probes take the unmasked flow and touch only the mask's
   non-zero slots, so a tuple constraining two fields hashes and compares
   two slots instead of masking all ten into a buffer first.  Most tuple
   probes miss, so each cell keeps its key's hash: a chain walk compares
   keys only on a hash match and never loads a non-matching key.

   Most misses do not get that far.  A counting filter, as long as the
   bucket array, holds per cell the number of stored keys whose value on
   one slot of the mask (the widest mask word, lowest slot on ties) lands
   there; a probe whose cell is zero is a definite miss, answered after a
   few loads and one multiply, before the masked hash.  The table grows
   at load 1/2, so a probe that passes the filter usually lands on an
   empty bucket. *)

type 'a bucket =
  | Empty
  | Cons of { hash : int; key : Flow.t; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mask : Mask.t;
  compiled : int array;
      (* the mask's non-zero slots, ascending, each followed by its mask
         word: [| slot; word; slot; word; ... |] *)
  fslot : int; (* the filter's slot and its mask word *)
  fword : int;
  mutable fshift : int; (* 63 - log2 (length of [filter] and [buckets]) *)
  mutable filter : int array; (* stored keys per filter cell *)
  mutable size : int;
  mutable buckets : 'a bucket array; (* length is a power of two *)
}

let create mask n =
  let compiled =
    List.init Field.count Fun.id
    |> List.concat_map (fun i ->
           let w = Mask.slot mask i in
           if w = 0 then [] else [ i; w ])
    |> Array.of_list
  in
  (* An empty mask filters on slot 0 under word 0: every key's value is 0,
     so the filter only says whether the table is empty. *)
  let fslot = ref 0 in
  for i = 1 to Field.count - 1 do
    if Gf_util.Bitops.popcount (Mask.slot mask i)
       > Gf_util.Bitops.popcount (Mask.slot mask !fslot)
    then fslot := i
  done;
  let rec pow2 k bits = if k >= n then (k, bits) else pow2 (2 * k) (bits + 1) in
  let len, bits = pow2 1 0 in
  {
    mask;
    compiled;
    fslot = !fslot;
    fword = Mask.slot mask !fslot;
    fshift = 63 - bits;
    filter = Array.make len 0;
    size = 0;
    buckets = Array.make len Empty;
  }

let length t = t.size

(* The mixed FNV-1a of [Flow.hash], over the masked values of the mask's
   slots only.  A stored pattern is already masked, so it hashes like any
   flow that matches it.  Top-level loops: no closure per probe. *)
let rec hash_from c flow j h =
  if j >= Array.length c then Gf_util.Bitops.mix h
  else
    hash_from c flow (j + 2)
      ((h lxor (Flow.slot flow (Array.unsafe_get c j) land Array.unsafe_get c (j + 1)))
      * 0x100000001b3)

let hash t flow = hash_from t.compiled flow 0 0x3bf29ce484222325

(* Does the stored pattern [key] match [flow] under the mask?  Slots
   outside the mask are zero in every pattern and never looked at. *)
let rec matches_from c key flow j =
  j >= Array.length c
  ||
  let s = Array.unsafe_get c j in
  Int.equal (Flow.slot key s) (Flow.slot flow s land Array.unsafe_get c (j + 1))
  && matches_from c key flow (j + 2)

let rec find_chain c h flow = function
  | Empty -> None
  | Cons cell ->
      if cell.hash = h && matches_from c cell.key flow 0 then Some cell.data
      else find_chain c h flow cell.next

(* Fibonacci hashing: the top bits of the product depend on every bit of
   the value, so prefix-masked values (low bits zero) spread too. *)
let[@inline] filter_cell t flow =
  ((Flow.slot flow t.fslot land t.fword) * 0x3f58476d1ce4e5b9) lsr t.fshift

let find_opt t flow =
  if Array.unsafe_get t.filter (filter_cell t flow) = 0 then None
  else
    let h = hash t flow in
    find_chain t.compiled h flow
      (Array.unsafe_get t.buckets (h land (Array.length t.buckets - 1)))

let count t key d =
  let i = filter_cell t key in
  t.filter.(i) <- t.filter.(i) + d

let resize t =
  let old = t.buckets in
  let mask = (2 * Array.length old) - 1 in
  t.buckets <- Array.make (mask + 1) Empty;
  t.filter <- Array.make (mask + 1) 0;
  t.fshift <- t.fshift - 1;
  let rec move = function
    | Empty -> ()
    | Cons c as cell ->
        let next = c.next in
        let i = c.hash land mask in
        c.next <- t.buckets.(i);
        t.buckets.(i) <- cell;
        count t c.key 1;
        move next
  in
  Array.iter move old

let replace t key data =
  if not (Flow.equal (Mask.apply t.mask key) key) then
    invalid_arg "Masked_tbl.replace: key is not a masked pattern";
  let h = hash t key in
  let i = h land (Array.length t.buckets - 1) in
  let rec go = function
    | Empty ->
        t.buckets.(i) <- Cons { hash = h; key; data; next = t.buckets.(i) };
        t.size <- t.size + 1;
        count t key 1;
        if 2 * t.size > Array.length t.buckets then resize t
    | Cons c ->
        if c.hash = h && matches_from t.compiled c.key key 0 then c.data <- data
        else go c.next
  in
  go t.buckets.(i)

let remove t key =
  let h = hash t key in
  let i = h land (Array.length t.buckets - 1) in
  let rec go prev = function
    | Empty -> ()
    | Cons c as cell ->
        if c.hash = h && matches_from t.compiled c.key key 0 then begin
          (match prev with Empty -> t.buckets.(i) <- c.next | Cons p -> p.next <- c.next);
          t.size <- t.size - 1;
          count t c.key (-1)
        end
        else go cell c.next
  in
  go Empty t.buckets.(i)

let fold f t init =
  let rec chain acc = function Empty -> acc | Cons c -> chain (f c.key c.data acc) c.next in
  Array.fold_left chain init t.buckets

let max_chain t =
  let rec len n = function Empty -> n | Cons c -> len (n + 1) c.next in
  Array.fold_left (fun m b -> max m (len 0 b)) 0 t.buckets
