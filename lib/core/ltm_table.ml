module Entry = Gf_classifier.Entry
module Tss = Gf_classifier.Tss
module Flow = Gf_flow.Flow
module Fmatch = Gf_flow.Fmatch

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
  mutable live : bool;
}

(* The inserts a tag's classifier keeps in its log: a power of two, so a
   record's ring index is the insert count's low bits. *)
let log_len = 256

(* Ints per log record: priority, key, and one significant slot of the
   entry's match as (slot, mask word, masked value). *)
let log_stride = 5

(* One tag's classifier and a ring of its last [log_len] inserts: what a
   {!visit} of this tag re-checks instead of re-probing. *)
type tagged = {
  cls : stored Tss.t;
  mutable inserts : int; (* entries ever inserted *)
  log : int array; (* [log_len] records of [log_stride] ints *)
  log_match : Fmatch.t array; (* each record's full match *)
}

module Tag_tbl = Gf_util.Int_tbl

type t = {
  capacity : int;
  by_tag : tagged Tag_tbl.t;
      (* exact match on the tag = one classifier per tag value; a tag's
         classifier, once created, never leaves *)
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

type visit = {
  table : t;
  tag : int;
  mutable tagged : tagged option;
  mutable since : int; (* [tagged]'s insert count the outcome is known at *)
  flow : Flow.t;
  winner : stored option;
}

let classify tagged flow =
  match tagged with
  | None -> (None, 1)
  | Some g ->
      let result, work = Tss.lookup g.cls flow in
      ((match result with Some e -> Some e.Entry.payload | None -> None), max 1 work)

let lookup t ~tag flow = classify (Tag_tbl.find_opt t.by_tag tag) flow

let lookup_visit t ~tag flow =
  let tagged = Tag_tbl.find_opt t.by_tag tag in
  let winner, work = classify tagged flow in
  let since = match tagged with Some g -> g.inserts | None -> 0 in
  ({ table = t; tag; tagged; since; flow; winner }, work)

let winner v = v.winner

(* Whether a logged insert in [i, stop) matches [flow] and beats a winner
   of priority [prio] and key [key] ([Entry.better]).  The int compares
   run first; the full match only on the records that pass them. *)
let rec beaten g flow ~prio ~key i stop =
  i < stop
  &&
  let j = i land (log_len - 1) in
  let r = j * log_stride in
  let log = g.log in
  let p = Array.unsafe_get log r in
  ((p > prio || (p = prio && Array.unsafe_get log (r + 1) < key))
   && Flow.slot flow (Array.unsafe_get log (r + 2)) land Array.unsafe_get log (r + 3)
      = Array.unsafe_get log (r + 4)
   && Fmatch.matches (Array.unsafe_get g.log_match j) flow)
  || beaten g flow ~prio ~key (i + 1) stop

(* The outcome holds while the winner is stored and no insert since
   [since] beats it; removals of other entries cannot change it.  A
   holding visit moves [since] up to now, so the next re-check scans only
   later inserts. *)
let revisit v =
  match v.winner with
  | Some s when not s.live -> -1
  | winner -> (
      let tagged =
        match v.tagged with None -> Tag_tbl.find_opt v.table.by_tag v.tag | some -> some
      in
      match tagged with
      | None -> 1
      | Some g ->
          let prio = match winner with Some s -> s.rule.Ltm_rule.priority | None -> min_int in
          let key = match winner with Some s -> s.key | None -> max_int in
          if g.inserts - v.since > log_len || beaten g v.flow ~prio ~key v.since g.inserts
          then -1
          else begin
            (match v.tagged with None -> v.tagged <- tagged | Some _ -> ());
            v.since <- g.inserts;
            max 1 (Tss.probes_for g.cls prio)
          end)

(* A table consumes [tag] while it holds an entry matching on it.  Removal
   keeps a tag's (then empty) classifier in [by_tag], hence the size test. *)
let consumes t tag =
  match Tag_tbl.find t.by_tag tag with
  | g -> Tss.size g.cls > 0
  | exception Not_found -> false

let consumed_changes t = t.consumed_changes

let find_identical t rule =
  Ltm_rule.Signature_tbl.find_opt t.by_signature (Ltm_rule.signature rule)

(* The last significant slot of [mask] (0 for a match-all): its
   (word, masked value) is the log's cheap pre-filter. *)
let rec last_significant mask i =
  if i <= 0 || Gf_flow.Mask.slot mask i <> 0 then max i 0
  else last_significant mask (i - 1)

let log_insert g (rule : Ltm_rule.t) key =
  let j = g.inserts land (log_len - 1) in
  let r = j * log_stride in
  let mask = Fmatch.mask rule.fmatch in
  let slot = last_significant mask (Gf_flow.Field.count - 1) in
  g.log.(r) <- rule.priority;
  g.log.(r + 1) <- key;
  g.log.(r + 2) <- slot;
  g.log.(r + 3) <- Gf_flow.Mask.slot mask slot;
  g.log.(r + 4) <- Flow.slot (Fmatch.pattern rule.fmatch) slot;
  g.log_match.(j) <- rule.fmatch;
  g.inserts <- g.inserts + 1

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
      live = true;
    }
  in
  if slot = Array.length t.entries then begin
    (* Sized by occupancy, doubling up to the capacity. *)
    let grown = Array.make (min t.capacity (max 16 (2 * slot))) stored in
    Array.blit t.entries 0 grown 0 slot;
    t.entries <- grown
  end;
  t.entries.(slot) <- stored;
  let g =
    match Tag_tbl.find_opt t.by_tag rule.Ltm_rule.tag_in with
    | Some g -> g
    | None ->
        let g =
          {
            cls = Tss.create ();
            inserts = 0;
            log = Array.make (log_len * log_stride) 0;
            log_match = Array.make log_len Fmatch.any;
          }
        in
        Tag_tbl.add t.by_tag rule.Ltm_rule.tag_in g;
        g
  in
  if Tss.size g.cls = 0 then t.consumed_changes <- t.consumed_changes + 1;
  Tss.insert g.cls
    (Entry.v ~key ~fmatch:rule.Ltm_rule.fmatch ~priority:rule.Ltm_rule.priority stored);
  log_insert g rule key;
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
      s.live <- false;
      Hashtbl.remove t.by_key s.key;
      Ltm_rule.Signature_tbl.remove t.by_signature (Ltm_rule.signature s.rule);
      (match Tag_tbl.find_opt t.by_tag s.rule.Ltm_rule.tag_in with
      | Some g ->
          ignore (Tss.remove g.cls s.key);
          if Tss.size g.cls = 0 then t.consumed_changes <- t.consumed_changes + 1
      | None -> ())

let entry t i =
  if i < 0 || i >= occupancy t then invalid_arg "Ltm_table.entry: index out of range";
  Array.unsafe_get t.entries i

let iter t f = Hashtbl.iter (fun _ s -> f s) t.by_key

let fold t ~init ~f = Hashtbl.fold (fun _ s acc -> f acc s) t.by_key init
