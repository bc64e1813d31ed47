(* Identity hash: the keys are small non-negative ints (flow ids, tags),
   which it spreads over the low bits the table buckets by, and the
   functor compares keys inline where the polymorphic [Hashtbl] calls C
   [caml_hash] on every find. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)
