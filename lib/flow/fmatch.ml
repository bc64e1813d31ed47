type t = { pattern : Flow.t; mask : Mask.t }

(* Interning the mask here means every fmatch built anywhere in the system —
   pipeline rules, Megaflow entries, LTM rules — carries a canonical mask,
   so the by-mask tuple grouping in the classifiers compares pointers. *)
let v ~pattern ~mask =
  let mask = Mask.intern mask in
  { pattern = Mask.apply mask pattern; mask }

let any = { pattern = Flow.zero; mask = Mask.empty }

let exact flow = { pattern = flow; mask = Mask.full }

let of_fields bindings =
  let pattern = Flow.make bindings in
  let mask = Mask.exact_fields (List.map fst bindings) in
  v ~pattern ~mask

let with_prefix t f ~value ~len =
  let pm = Gf_util.Bitops.prefix_mask ~width:(Field.width f) len in
  let mask = Mask.set t.mask f (Mask.get t.mask f lor pm) in
  let pattern = Flow.set t.pattern f (value land pm lor Flow.get t.pattern f) in
  v ~pattern ~mask

let matches t flow = Mask.matches t.mask ~pattern:t.pattern flow

let mask t = t.mask
let pattern t = t.pattern

let equal a b = Flow.equal a.pattern b.pattern && Mask.equal a.mask b.mask

let compare a b =
  let c = Mask.compare a.mask b.mask in
  if c <> 0 then c else Flow.compare a.pattern b.pattern

let hash t = (Flow.hash t.pattern * 31) + Mask.hash t.mask

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let is_more_specific a ~than:b =
  Mask.subsumes ~loose:b.mask ~tight:a.mask
  && Mask.matches b.mask ~pattern:b.pattern a.pattern

let overlaps a b =
  (* They overlap iff the patterns agree on every bit both masks constrain. *)
  let shared = Mask.inter a.mask b.mask in
  Mask.matches shared ~pattern:a.pattern b.pattern

let pp fmt t =
  if Mask.is_empty t.mask then Format.pp_print_string fmt "<any>"
  else begin
    let pa = Flow.to_array t.pattern in
    let first = ref true in
    Field.Set.iter
      (fun f ->
        if not !first then Format.pp_print_char fmt ' ';
        first := false;
        let i = Field.index f in
        let m = Mask.get t.mask f in
        if m = Field.full_mask f then
          Format.fprintf fmt "%s=%#x" (Field.name f) pa.(i)
        else Format.fprintf fmt "%s=%#x/%#x" (Field.name f) pa.(i) m)
      (Mask.fields t.mask)
  end

let to_string t = Format.asprintf "%a" pp t
