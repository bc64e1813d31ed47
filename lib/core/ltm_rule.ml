module Fmatch = Gf_flow.Fmatch
module Action = Gf_pipeline.Action

type next = Next_tag of int | Done of Action.terminal

type origin = { parent_flow : Gf_flow.Flow.t; length : int; version : int }

type t = {
  tag_in : int;
  fmatch : Fmatch.t;
  priority : int;
  commit : (Gf_flow.Field.t * int) list;
  next : next;
  origin : origin;
}

(* The behavioural identity is the rule read without [origin], so a
   signature is the rule itself: building one allocates nothing, and the
   hash and equality below skip [origin]. *)
type signature = t

let signature t = t

let next_equal a b =
  match (a, b) with
  | Next_tag x, Next_tag y -> Int.equal x y
  | Done x, Done y -> Action.terminal_equal x y
  | (Next_tag _ | Done _), _ -> false

let same_rule a b =
  a == b
  || Int.equal a.tag_in b.tag_in
     && Int.equal a.priority b.priority
     && Fmatch.equal a.fmatch b.fmatch
     && next_equal a.next b.next
     && List.equal
          (fun (f, v) (f', v') -> Gf_flow.Field.equal f f' && Int.equal v v')
          a.commit b.commit

(* FNV-1a step; [signature_hash] mixes once at the end. *)
let fnv h x = (h lxor x) * 0x100000001b3

(* Covers every field of the signature: tag, the whole match (pattern and
   mask, through [Fmatch.hash]), priority, next and commit. *)
let signature_hash t =
  let h = fnv (fnv (fnv 0x3bf29ce484222325 t.tag_in) t.priority) (Fmatch.hash t.fmatch) in
  let h =
    match t.next with
    | Next_tag tag -> fnv (fnv h 0) tag
    | Done (Action.Output port) -> fnv (fnv h 1) port
    | Done Action.Drop -> fnv h 2
    | Done Action.Controller -> fnv h 3
  in
  Gf_util.Bitops.mix
    (List.fold_left (fun h (f, v) -> fnv (fnv h (Gf_flow.Field.index f)) v) h t.commit)

module Signature_tbl = Hashtbl.Make (struct
  type t = signature

  let equal = same_rule
  let hash = signature_hash
end)

let pp_next fmt = function
  | Next_tag tag -> Format.fprintf fmt "tag:=%d" tag
  | Done terminal -> Format.fprintf fmt "done(%a)" Action.pp_terminal terminal

let pp fmt t =
  Format.fprintf fmt "[tau=%d rho=%d %a" t.tag_in t.priority Fmatch.pp t.fmatch;
  List.iter
    (fun (f, v) -> Format.fprintf fmt " set %s=%#x" (Gf_flow.Field.name f) v)
    t.commit;
  Format.fprintf fmt " %a]" pp_next t.next
