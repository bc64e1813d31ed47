module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Masked_tbl = Gf_flow.Masked_tbl
module Bitops = Gf_util.Bitops

(* One masked field of a tuple, compiled at [rebuild] for the
   minimal-unwildcarding overlap checks (see [exclude_tuple]). *)
type field_keys = {
  field : Field.t;
  fmask : int; (* the tuple's mask on [field] *)
  plen : int; (* leading all-ones prefix length of [fmask] *)
  prefix_shaped : bool; (* [fmask] is exactly that prefix *)
  keys : int array;
      (* sorted distinct [field] values of the tuple's keys; empty unless
         [prefix_shaped] *)
}

(* One tuple of the search: all rules sharing a mask.  [fields] holds its
   masked fields in [refinement_order]. *)
type tuple = {
  mask : Mask.t;
  mutable max_priority : int;
  entries : Ofrule.t list Masked_tbl.t;
  mutable fields : field_keys array;
}

type unwildcard = [ `Minimal | `Full ]

type t = {
  id : int;
  name : string;
  match_fields : Gf_flow.Field.Set.t;
  miss : Action.t;
  rules : (int, Ofrule.t) Hashtbl.t;
  mutable tuples : tuple list; (* sorted by max_priority desc *)
  mutable dirty : bool;
  mutable unwildcard : unwildcard;
}

type lookup_result = {
  outcome : [ `Hit of Ofrule.t | `Miss ];
  consulted : Mask.t;
  probes : int;
}

let create ~id ~name ~match_fields ~miss =
  {
    id;
    name;
    match_fields;
    miss;
    rules = Hashtbl.create 64;
    tuples = [];
    dirty = false;
    unwildcard = `Minimal;
  }

let id t = t.id
let name t = t.name
let miss_action t = t.miss
let size t = Hashtbl.length t.rules
let set_unwildcard t mode = t.unwildcard <- mode

(* Best-first rule order: higher priority first, then lower id. *)
let rule_order (a : Ofrule.t) (b : Ofrule.t) =
  let c = compare b.priority a.priority in
  if c <> 0 then c else compare a.id b.id

let rules t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rules [] |> List.sort rule_order

(* ------------------------------------------------------------------ *)
(* Minimal dependency unwildcarding (paper section 4.2.3).

   A cached entry derived from this lookup is the region of flows agreeing
   with [flow] on the consulted mask W.  Correctness requires that no flow
   in the region can match a rule that would beat the winner.  Instead of
   unioning every probed tuple mask into W (sound but so fat that every
   cache entry becomes flow-specific), we exclude each dangerous tuple with
   as few bits as possible:

   - if some field of the tuple provably has no key inside the region's
     value interval, the tuple is already excluded — zero bits;
   - otherwise we extend the region's prefix on one field, one bit at a
     time (the paper's 192.168.21.27 -> 255.255.240.0 example), until the
     interval is key-free;
   - if no single field resolves the overlap, fall back to unioning the
     tuple's whole mask (always sound).

   The interval reasoning is only valid for contiguous-from-the-top
   (prefix-shaped) field masks; anything else is handled conservatively.
   [rebuild] compiles each tuple's masked fields once ([compile_fields]),
   so a lookup's exclusion pass allocates only the wildcard it extends. *)

(* Longest all-ones prefix of [m] within [width] bits. *)
let leading_prefix_len ~width m =
  let rec go i =
    if i >= width then width
    else if m land (1 lsl (width - 1 - i)) = 0 then i
    else go (i + 1)
  in
  go 0

(* Fields in the order we prefer to spend exclusion bits on: IP prefixes
   first (where nesting actually occurs), then ports, then L2. *)
let refinement_order =
  [
    Field.Ip_dst;
    Field.Ip_src;
    Field.Tp_dst;
    Field.Tp_src;
    Field.Eth_dst;
    Field.Eth_src;
    Field.Vlan;
    Field.In_port;
    Field.Eth_type;
    Field.Ip_proto;
  ]

(* Sorted distinct values of [field] over [keys]. *)
let sorted_values keys field =
  let values = Array.map (fun k -> Flow.get k field) keys in
  Array.stable_sort Int.compare values;
  let n = Array.length values in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || values.(i) <> values.(i - 1) then begin
      values.(!distinct) <- values.(i);
      incr distinct
    end
  done;
  Array.sub values 0 !distinct

let compile_fields tuple =
  let keys = Array.of_list (Masked_tbl.fold (fun key _ acc -> key :: acc) tuple.entries []) in
  tuple.fields <-
    Array.of_list
      (List.filter_map
         (fun field ->
           let fmask = Mask.get tuple.mask field in
           if fmask = 0 then None
           else begin
             let width = Field.width field in
             let plen = leading_prefix_len ~width fmask in
             let prefix_shaped = fmask = Bitops.prefix_mask ~width plen in
             (* Only prefix-shaped fields are ever searched. *)
             let keys = if prefix_shaped then sorted_values keys field else [||] in
             Some { field; fmask; plen; prefix_shaped; keys }
           end)
         refinement_order)

(* Does the tuple hold a key whose [fk]-field value range meets [lo, hi]?
   Keys are masked patterns; a key [k] of prefix length p covers
   [k, k | suffix], so the smallest key whose range can reach [lo] is
   [lo land fmask].  Only meaningful when [fk.prefix_shaped]. *)
let has_key_in fk ~lo ~hi =
  let keys = fk.keys in
  let klo = lo land fk.fmask in
  (* Binary search: first key >= klo. *)
  let n = Array.length keys in
  let l = ref 0 and r = ref n in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if keys.(mid) >= klo then r := mid else l := mid + 1
  done;
  !l < n && keys.(!l) <= hi

(* Does the region that pins the leading [plen] bits of [flow]'s field (the
   rest free) meet a key? *)
let region_has_key fk ~flow plen =
  let pmask = Bitops.prefix_mask ~width:(Field.width fk.field) plen in
  let lo = Flow.get flow fk.field land pmask in
  has_key_in fk ~lo ~hi:(lo lor (Field.full_mask fk.field land lnot pmask))

(* The region's pinned prefix on [fk]'s field under wildcard [w]. *)
let region_plen w fk = leading_prefix_len ~width:(Field.width fk.field) (Mask.get w fk.field)

(* Already excluded?  Some prefix-shaped field's region interval holds no
   key (non-prefix-shaped fields are conservatively taken to overlap). *)
let rec excluded ~flow w fields i =
  i < Array.length fields
  && ((fields.(i).prefix_shaped
      && not (region_has_key fields.(i) ~flow (region_plen w fields.(i))))
     || excluded ~flow w fields (i + 1))

(* The shortest pinned prefix from [plen] up to the tuple's own prefix
   length whose region is key-free, or -1. *)
let rec extend fk ~flow plen =
  if plen > fk.plen then -1
  else if region_has_key fk ~flow plen then extend fk ~flow (plen + 1)
  else plen

(* Resolve on the first field whose prefix can be extended past the
   current (overlapping) constraint to exclude the tuple. *)
let rec first_resolving ~flow w tu i =
  if i >= Array.length tu.fields then Mask.union w tu.mask (* fat but always sound *)
  else begin
    let fk = tu.fields.(i) in
    let plen = if fk.prefix_shaped then extend fk ~flow (region_plen w fk + 1) else -1 in
    if plen < 0 then first_resolving ~flow w tu (i + 1)
    else
      Mask.set w fk.field
        (Mask.get w fk.field lor Bitops.prefix_mask ~width:(Field.width fk.field) plen)
  end

(* Exclude tuple [tu] from the region (flow, w); returns the augmented
   wildcard. *)
let exclude_tuple ~flow w tu =
  if excluded ~flow w tu.fields 0 then w else first_resolving ~flow w tu 0

let rebuild t =
  let by_mask : tuple Mask.Tbl.t = Mask.Tbl.create 16 in
  Hashtbl.iter
    (fun _ (r : Ofrule.t) ->
      let mask = Fmatch.mask r.fmatch in
      let tuple =
        match Mask.Tbl.find_opt by_mask mask with
        | Some tu -> tu
        | None ->
            let mask = Mask.intern mask in
            let tu =
              {
                mask;
                max_priority = min_int;
                entries = Masked_tbl.create mask 32;
                fields = [||];
              }
            in
            Mask.Tbl.add by_mask mask tu;
            tu
      in
      if r.priority > tuple.max_priority then tuple.max_priority <- r.priority;
      let key = Fmatch.pattern r.fmatch in
      let existing = Option.value ~default:[] (Masked_tbl.find_opt tuple.entries key) in
      Masked_tbl.replace tuple.entries key (List.sort rule_order (r :: existing)))
    t.rules;
  Mask.Tbl.iter (fun _ tuple -> compile_fields tuple) by_mask;
  (* Ties on [max_priority] break on the mask, not on [Mask.Tbl]'s
     iteration order: [lookup]'s exclusion fold runs in this order and
     feeds the consulted wildcard, which must not depend on any hash. *)
  t.tuples <-
    Mask.Tbl.fold (fun _ tu acc -> tu :: acc) by_mask []
    |> List.sort (fun a b ->
           let c = compare b.max_priority a.max_priority in
           if c <> 0 then c else Mask.compare a.mask b.mask);
  t.dirty <- false

let ensure t = if t.dirty then rebuild t

(* Replica for a parallel-replay domain.  It owns its rule set and its
   lazy-rebuild flag but shares the source's built tuples: lookups only
   read them, and [rebuild] never mutates a tuple it did not just create,
   so an [add_rule]/[remove_rule] on either side marks only that side
   dirty and its rebuild leaves the other's tuples alone.  Building the
   source first means N replicas cost one rebuild, not N. *)
let copy t =
  ensure t;
  { t with rules = Hashtbl.copy t.rules }

let add_rule t (r : Ofrule.t) =
  if Hashtbl.mem t.rules r.id then
    invalid_arg (Printf.sprintf "Oftable.add_rule: duplicate rule id %d" r.id);
  Hashtbl.add t.rules r.id r;
  t.dirty <- true

let remove_rule t rule_id =
  if Hashtbl.mem t.rules rule_id then begin
    Hashtbl.remove t.rules rule_id;
    t.dirty <- true;
    true
  end
  else false

let lookup t flow =
  ensure t;
  (* Pass 1: probe tuples best-priority-first to find the winner, recording
     which tuples were consulted. *)
  let rec go tuples best probed probes =
    match tuples with
    | [] -> (best, probed, probes)
    | tuple :: rest -> (
        match best with
        | Some (r : Ofrule.t) when r.priority > tuple.max_priority ->
            (best, probed, probes)
        | _ ->
            let probes = probes + 1 in
            let candidate =
              match Masked_tbl.find_opt tuple.entries flow with
              | Some (r :: _) -> Some r
              | Some [] | None -> None
            in
            let best =
              match (best, candidate) with
              | None, c -> c
              | b, None -> b
              | Some b, Some c -> if rule_order c b < 0 then candidate else best
            in
            go rest best (tuple :: probed) probes)
  in
  let best, probed, probes = go t.tuples None [] 0 in
  (* Pass 2: build the consulted wildcard — the winner's own mask plus
     minimal exclusion bits for every probed tuple that could beat it. *)
  let consulted =
    match (t.unwildcard, best) with
    | `Full, _ ->
        (* Ablation: naive union of every probed tuple mask. *)
        List.fold_left (fun w tu -> Mask.union w tu.mask) Mask.empty probed
    | `Minimal, best -> (
    match best with
    | Some r ->
        let win_mask = Fmatch.mask r.fmatch in
        List.fold_left
          (fun w tu ->
            if Mask.equal tu.mask win_mask then w
            else if
              tu.max_priority > r.priority
              || tu.max_priority = r.priority (* ties: conservative *)
            then exclude_tuple ~flow w tu
            else w)
          win_mask probed
    | None -> List.fold_left (fun w tu -> exclude_tuple ~flow w tu) Mask.empty probed)
  in
  match best with
  | Some r -> { outcome = `Hit r; consulted; probes }
  | None -> { outcome = `Miss; consulted; probes }

let pp fmt t =
  Format.fprintf fmt "table %d (%s): %d rules, fields %a" t.id t.name (size t)
    Gf_flow.Field.Set.pp t.match_fields
