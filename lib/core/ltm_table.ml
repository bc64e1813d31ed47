module Entry = Gf_classifier.Entry
module Tss = Gf_classifier.Tss

(* All floats, so stored flat: a touch on the hit path is two plain
   stores, no float box and no write barrier. *)
type clock = {
  mutable last_used : float;
  mutable last_hit : float;
      (* last time a walk *completed* through this entry (or an install
         reused it) — unlike [last_used], partial walks that dead-end and
         fall to the slowpath do not refresh it, so replacement policies
         see dead chain prefixes as cold even though every miss still
         touches them. *)
}

type stored = {
  rule : Ltm_rule.t;
  key : int;
  clock : clock;
  mutable shares : int;
  mutable slot : int; (* index in [entries] *)
  mutable safe_stamp : int;
  mutable safe : bool;
}

module Tag_tbl = Gf_util.Int_tbl

type t = {
  capacity : int;
  by_tag : stored Tss.t Tag_tbl.t;
      (* exact match on the tag = one classifier per tag value *)
  by_signature : stored Ltm_rule.Signature_tbl.t;
  by_key : (int, stored) Hashtbl.t;
  mutable entries : stored array;
      (* every entry, densely in [0, occupancy): the replacement pass
         scans this instead of walking [by_key]'s buckets *)
  mutable next_key : int;
  mutable consumed_changes : int;
      (* bumped whenever a tag's classifier turns empty or non-empty *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ltm_table.create: capacity must be >= 1";
  {
    capacity;
    by_tag = Tag_tbl.create 16;
    by_signature = Ltm_rule.Signature_tbl.create 64;
    by_key = Hashtbl.create 64;
    entries = [||];
    next_key = 0;
    consumed_changes = 0;
  }

let occupancy t = Hashtbl.length t.by_key
let is_full t = occupancy t >= t.capacity

let lookup t ~tag flow =
  match Tag_tbl.find_opt t.by_tag tag with
  | None -> (None, 1)
  | Some classifier ->
      let result, work = Tss.lookup classifier flow in
      ((match result with Some e -> Some e.Entry.payload | None -> None), max 1 work)

(* A table consumes [tag] while it holds an entry matching on it.  Removal
   keeps a tag's (then empty) classifier in [by_tag], hence the size test. *)
let consumes t tag =
  match Tag_tbl.find t.by_tag tag with
  | classifier -> Tss.size classifier > 0
  | exception Not_found -> false

let consumed_changes t = t.consumed_changes

let find_identical t rule =
  Ltm_rule.Signature_tbl.find_opt t.by_signature (Ltm_rule.signature rule)

let insert t ~now rule =
  if is_full t then invalid_arg "Ltm_table.insert: table full";
  let key = t.next_key in
  t.next_key <- key + 1;
  let slot = occupancy t in
  let stored =
    {
      rule;
      key;
      clock = { last_used = now; last_hit = now };
      shares = 1;
      slot;
      safe_stamp = -1;
      safe = false;
    }
  in
  if slot = Array.length t.entries then begin
    (* Sized by occupancy, doubling up to the capacity. *)
    let grown = Array.make (min t.capacity (max 16 (2 * slot))) stored in
    Array.blit t.entries 0 grown 0 slot;
    t.entries <- grown
  end;
  t.entries.(slot) <- stored;
  let classifier =
    match Tag_tbl.find_opt t.by_tag rule.Ltm_rule.tag_in with
    | Some c -> c
    | None ->
        let c = Tss.create () in
        Tag_tbl.add t.by_tag rule.Ltm_rule.tag_in c;
        c
  in
  if Tss.size classifier = 0 then t.consumed_changes <- t.consumed_changes + 1;
  Tss.insert classifier
    (Entry.v ~key ~fmatch:rule.Ltm_rule.fmatch ~priority:rule.Ltm_rule.priority stored);
  Ltm_rule.Signature_tbl.replace t.by_signature (Ltm_rule.signature rule) stored;
  Hashtbl.replace t.by_key key stored;
  stored

let remove t stored =
  match Hashtbl.find_opt t.by_key stored.key with
  | None -> ()
  | Some s ->
      (* Fill the hole with the last entry. *)
      let last = t.entries.(occupancy t - 1) in
      t.entries.(s.slot) <- last;
      last.slot <- s.slot;
      Hashtbl.remove t.by_key s.key;
      Ltm_rule.Signature_tbl.remove t.by_signature (Ltm_rule.signature s.rule);
      (match Tag_tbl.find_opt t.by_tag s.rule.Ltm_rule.tag_in with
      | Some classifier ->
          ignore (Tss.remove classifier s.key);
          if Tss.size classifier = 0 then t.consumed_changes <- t.consumed_changes + 1
      | None -> ())

let entry t i =
  if i < 0 || i >= occupancy t then invalid_arg "Ltm_table.entry: index out of range";
  Array.unsafe_get t.entries i

let iter t f = Hashtbl.iter (fun _ s -> f s) t.by_key

let fold t ~init ~f = Hashtbl.fold (fun _ s acc -> f acc s) t.by_key init
