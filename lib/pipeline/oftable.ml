module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Masked_tbl = Gf_flow.Masked_tbl

(* One tuple of the search: all rules sharing a mask.  [field_keys] holds,
   per masked field, the sorted distinct key values present — the index the
   minimal-unwildcarding overlap checks binary-search (see [lookup]). *)
type tuple = {
  mask : Mask.t;
  mutable max_priority : int;
  entries : Ofrule.t list Masked_tbl.t;
  mutable field_keys : (int * int array) list; (* (field index, sorted keys) *)
}

type t = {
  id : int;
  name : string;
  match_fields : Gf_flow.Field.Set.t;
  miss : Action.t;
  rules : (int, Ofrule.t) Hashtbl.t;
  mutable tuples : tuple list; (* sorted by max_priority desc *)
  mutable dirty : bool;
}

type lookup_result = {
  outcome : [ `Hit of Ofrule.t | `Miss ];
  consulted : Mask.t;
  probes : int;
}

let unwildcard_mode : [ `Minimal | `Full ] ref = ref `Minimal

let create ~id ~name ~match_fields ~miss =
  {
    id;
    name;
    match_fields;
    miss;
    rules = Hashtbl.create 64;
    tuples = [];
    dirty = false;
  }

let id t = t.id
let name t = t.name
let match_fields t = t.match_fields
let miss_action t = t.miss
let size t = Hashtbl.length t.rules

(* Best-first rule order: higher priority first, then lower id. *)
let rule_order (a : Ofrule.t) (b : Ofrule.t) =
  let c = compare b.priority a.priority in
  if c <> 0 then c else compare a.id b.id

let rules t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rules [] |> List.sort rule_order

let build_field_keys tuple =
  let keys = Masked_tbl.fold (fun key _ acc -> key :: acc) tuple.entries [] in
  tuple.field_keys <-
    List.filter_map
      (fun f ->
        if Mask.get tuple.mask f = 0 then None
        else begin
          let values =
            List.sort_uniq compare (List.map (fun k -> Flow.get k f) keys)
          in
          Some (Field.index f, Array.of_list values)
        end)
      (Array.to_list Field.all)

let rebuild t =
  let by_mask : tuple Mask.Tbl.t = Mask.Tbl.create 16 in
  Hashtbl.iter
    (fun _ (r : Ofrule.t) ->
      let mask = Mask.intern (Fmatch.mask r.fmatch) in
      let tuple =
        match Mask.Tbl.find_opt by_mask mask with
        | Some tu -> tu
        | None ->
            let tu =
              {
                mask;
                max_priority = min_int;
                entries = Masked_tbl.create mask 32;
                field_keys = [];
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
  Mask.Tbl.iter (fun _ tuple -> build_field_keys tuple) by_mask;
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

(* Independent replica for a parallel-replay domain: shares the (immutable)
   rules but owns its search state — the tuple tables and lazy-rebuild flag
   are mutated during lookups, so replicas must not share them across
   domains. *)
let copy t =
  {
    id = t.id;
    name = t.name;
    match_fields = t.match_fields;
    miss = t.miss;
    rules = Hashtbl.copy t.rules;
    tuples = [];
    dirty = true;
  }

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

let find_rule t rule_id = Hashtbl.find_opt t.rules rule_id

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
     tuple's whole mask (always sound).                                  *)

(* Longest all-ones prefix of [m] within [width] bits. *)
let leading_prefix_len ~width m =
  let rec go i =
    if i >= width then width
    else if m land (1 lsl (width - 1 - i)) = 0 then i
    else go (i + 1)
  in
  go 0

(* Is [m] exactly a prefix mask?  The interval reasoning below is only
   valid for contiguous-from-the-top masks; anything else is handled
   conservatively. *)
let prefix_shaped ~width m =
  m = Gf_util.Bitops.prefix_mask ~width (leading_prefix_len ~width m)

(* Does tuple [tu] contain a key whose [fi]-field value-range intersects
   [lo, hi] (raw value interval)?  Keys are masked patterns; a key [k] with
   prefix mask of length p covers [k, k | suffix].  Only called when the
   tuple's field mask is prefix-shaped. *)
let field_has_key_in tu fi ~fmask ~lo ~hi =
  match List.assoc_opt fi tu.field_keys with
  | None | Some [||] -> false
  | Some keys ->
      (* Aligned keys: the smallest key whose covered range can reach [lo]
         is [lo land fmask]. *)
      let klo = lo land fmask in
      (* Binary search: first key >= klo. *)
      let n = Array.length keys in
      let l = ref 0 and r = ref n in
      while !l < !r do
        let mid = (!l + !r) / 2 in
        if keys.(mid) >= klo then r := mid else l := mid + 1
      done;
      !l < n && keys.(!l) <= hi

(* The region's value interval for field [f] under wildcard [w]: bits in the
   leading prefix of [w] are pinned to [flow]'s, the rest are free. *)
let region_interval ~flow ~w f =
  let width = Field.width f in
  let plen = leading_prefix_len ~width (Mask.get w f) in
  let pmask = Gf_util.Bitops.prefix_mask ~width plen in
  let base = Flow.get flow f land pmask in
  (base, base lor (Field.full_mask f land lnot pmask), plen)

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

(* Exclude tuple [tu] from the region (flow, w); returns the augmented
   wildcard. *)
let exclude_tuple ~flow w tu =
  let fields =
    List.filter (fun f -> Mask.get tu.mask f <> 0) refinement_order
  in
  (* Already excluded?  (Non-prefix-shaped tuple fields are conservatively
     treated as overlapping.) *)
  let overlaps f =
    let width = Field.width f in
    let fmask = Mask.get tu.mask f in
    (not (prefix_shaped ~width fmask))
    ||
    let lo, hi, _ = region_interval ~flow ~w f in
    field_has_key_in tu (Field.index f) ~fmask ~lo ~hi
  in
  if List.exists (fun f -> not (overlaps f)) fields then w
  else begin
    (* Try to resolve on a single field by extending the region prefix. *)
    let try_field f =
      let width = Field.width f in
      let fmask = Mask.get tu.mask f in
      if not (prefix_shaped ~width fmask) then None
      else begin
      let tuple_plen = leading_prefix_len ~width fmask in
      let _, _, plen0 = region_interval ~flow ~w f in
      let rec extend plen =
        if plen > tuple_plen then None
        else begin
          let pmask = Gf_util.Bitops.prefix_mask ~width plen in
          let base = Flow.get flow f land pmask in
          let hi = base lor (Field.full_mask f land lnot pmask) in
          if field_has_key_in tu (Field.index f) ~fmask ~lo:base ~hi then
            extend (plen + 1)
          else Some plen
        end
      in
      (* Start one past the current constraint — the current one overlaps. *)
      match extend (plen0 + 1) with
      | Some plen ->
          Some (Mask.set w f (Mask.get w f lor Gf_util.Bitops.prefix_mask ~width plen))
      | None -> None
      end
    in
    let rec first_resolving = function
      | [] -> Mask.union w tu.mask (* fat but always sound *)
      | f :: rest -> (
          match try_field f with Some w' -> w' | None -> first_resolving rest)
    in
    first_resolving fields
  end

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
    match (!unwildcard_mode, best) with
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

let distinct_masks t =
  ensure t;
  List.length t.tuples

let pp fmt t =
  Format.fprintf fmt "table %d (%s): %d rules, fields %a" t.id t.name (size t)
    Gf_flow.Field.Set.pp t.match_fields
