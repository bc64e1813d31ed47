(* Test-only reference for Gf_cache.Cuckoo: the flat-array store it
   replaced, which preallocates every slot of the logical geometry.  The
   differential property in test_offload.ml runs both side by side; every
   install, kick, drop and victim must agree. *)

module Evict = Gf_cache.Evict
module Hit = Gf_cache.Hit
module Install = Gf_cache.Install

module Flow = Gf_flow.Flow

let bucket_width = 4
let max_kicks = 8

(* Slot-per-index flat arrays; [occupied] disambiguates live slots from the
   dummy fill (Flow.zero is a legal key). *)
type t = {
  mutable capacity : int;
  nbuckets : int; (* power of two *)
  bmask : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  keys : Flow.t array;
  hits : Hit.t array;
  last_used : float array;
  occupied : bool array;
  mutable size : int;
}

let dummy_hit = { Hit.terminal = Gf_pipeline.Action.Drop; out_flow = Flow.zero }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(policy = Evict.Lru) ?(rng_seed = 0xCC00) ~capacity () =
  if capacity < 1 then invalid_arg "Cuckoo.create: capacity must be >= 1";
  (* size buckets so [capacity] live entries sit at <= 80% physical load *)
  let want_slots = (capacity * 5 / 4) + bucket_width in
  let nbuckets = next_pow2 ((want_slots + bucket_width - 1) / bucket_width) in
  let nslots = nbuckets * bucket_width in
  {
    capacity;
    nbuckets;
    bmask = nbuckets - 1;
    policy;
    rng = Gf_util.Rng.create rng_seed;
    keys = Array.make nslots Flow.zero;
    hits = Array.make nslots dummy_hit;
    last_used = Array.make nslots 0.0;
    occupied = Array.make nslots false;
    size = 0;
  }

let capacity t = t.capacity
let slots t = t.nbuckets * bucket_width
let policy t = t.policy
let set_policy t policy = t.policy <- policy

(* The admission bound may move online; physical geometry (buckets/slots)
   is fixed, so the new bound is clamped to the slot count.  Shrinking does
   not evict residents — the bound bites on the next install. *)
let set_capacity t capacity =
  if capacity < 1 then invalid_arg "Cuckoo.set_capacity: capacity must be >= 1";
  t.capacity <- min capacity (t.nbuckets * bucket_width)
let occupancy t = t.size

let bucket1 t key = Flow.hash key land t.bmask

(* Deterministic remix for the alternate bucket; nudged when it collides
   with the primary so every key genuinely has two buckets. *)
let alt_bucket t key b =
  let h = Flow.hash key in
  let h2 = (h * 0x9E3779B1) lxor (h lsr 15) in
  let b2 = h2 land t.bmask in
  if b2 = b then (b + 1) land t.bmask else b2

(* Index of the slot holding [key] in bucket [b], or -1. *)
let find_in_bucket t b key =
  let base = b * bucket_width in
  let rec go i =
    if i = bucket_width then -1
    else if t.occupied.(base + i) && Flow.equal t.keys.(base + i) key then
      base + i
    else go (i + 1)
  in
  go 0

let find_slot t key =
  let b1 = bucket1 t key in
  let s = find_in_bucket t b1 key in
  if s >= 0 then s else find_in_bucket t (alt_bucket t key b1) key

let empty_in_bucket t b =
  let base = b * bucket_width in
  let rec go i =
    if i = bucket_width then -1
    else if not t.occupied.(base + i) then base + i
    else go (i + 1)
  in
  go 0

let lookup t ~now flow =
  let s = find_slot t flow in
  if s >= 0 then begin
    t.last_used.(s) <- now;
    Some t.hits.(s)
  end
  else None

let clear_slot t s =
  t.occupied.(s) <- false;
  t.keys.(s) <- Flow.zero;
  t.hits.(s) <- dummy_hit;
  t.size <- t.size - 1

let fill_slot t s key hit now =
  if not t.occupied.(s) then t.size <- t.size + 1;
  t.occupied.(s) <- true;
  t.keys.(s) <- key;
  t.hits.(s) <- hit;
  t.last_used.(s) <- now

(* Victim slot among the (occupied) slots of buckets [b1]/[b2] for the
   evicting policies.  Exact-match entries carry no priority, so
   [Priority_aware] degenerates to recency, like the EMC. *)
let pick_victim t b1 b2 =
  let candidates = ref [] in
  let add b =
    let base = b * bucket_width in
    for i = 0 to bucket_width - 1 do
      if t.occupied.(base + i) then candidates := (base + i) :: !candidates
    done
  in
  add b1;
  if b2 <> b1 then add b2;
  match !candidates with
  | [] -> -1
  | cs -> (
      match t.policy with
      | Evict.Reject -> -1
      | Evict.Lru | Evict.Priority_aware ->
          List.fold_left
            (fun best s ->
              if best < 0 || t.last_used.(s) < t.last_used.(best) then s
              else best)
            (-1) cs
      | Evict.Random ->
          let cs = List.rev cs (* deterministic order *) in
          List.nth cs (Gf_util.Rng.int t.rng (List.length cs)))

(* The victim of an install over the bound whose two buckets hold no
   resident: the least recently used resident (lowest slot of equals), or
   a seeded draw over the residents in slot order. *)
let table_victim t =
  let n = t.nbuckets * bucket_width in
  match t.policy with
  | Evict.Reject -> -1
  | Evict.Lru | Evict.Priority_aware ->
      let best = ref (-1) in
      for s = 0 to n - 1 do
        if t.occupied.(s) && (!best < 0 || t.last_used.(s) < t.last_used.(!best)) then
          best := s
      done;
      !best
  | Evict.Random ->
      let rec nth s k =
        if not t.occupied.(s) then nth (s + 1) k else if k = 0 then s else nth (s + 1) (k - 1)
      in
      nth 0 (Gf_util.Rng.int t.rng t.size)

(* Re-home displaced entries for up to [max_kicks] hops; on exhaustion the
   last displaced entry is dropped (one pressure eviction). *)
let rec kick t ~depth b key hit lu =
  let s = empty_in_bucket t b in
  if s >= 0 then begin
    fill_slot t s key hit lu;
    0
  end
  else if depth >= max_kicks then 1
  else begin
    let base = b * bucket_width in
    let v = base + Gf_util.Rng.int t.rng bucket_width in
    let vkey = t.keys.(v) and vhit = t.hits.(v) and vlu = t.last_used.(v) in
    t.keys.(v) <- key;
    t.hits.(v) <- hit;
    t.last_used.(v) <- lu;
    let vb1 = bucket1 t vkey in
    let vb = if vb1 = b then alt_bucket t vkey vb1 else vb1 in
    kick t ~depth:(depth + 1) vb vkey vhit vlu
  end

let install t ~now flow hit =
  let s = find_slot t flow in
  if s >= 0 then begin
    t.hits.(s) <- hit;
    t.last_used.(s) <- now;
    Install.Installed { fresh = 1; shared = 0; pressure_evicted = 0 }
  end
  else begin
    let b1 = bucket1 t flow in
    let b2 = alt_bucket t flow b1 in
    if t.size >= t.capacity && t.policy = Evict.Reject then
      Install.Rejected { pressure_evicted = 0 }
    else begin
      (* evict down to one below the bound (several victims only after
         the bound shrank below occupancy) *)
      let pressure = ref 0 in
      while t.size >= t.capacity do
        let v = pick_victim t b1 b2 in
        clear_slot t (if v >= 0 then v else table_victim t);
        incr pressure
      done;
      let pressure = !pressure in
      let s = empty_in_bucket t b1 in
      let s = if s >= 0 then s else empty_in_bucket t b2 in
      if s >= 0 then begin
        fill_slot t s flow hit now;
        Install.Installed { fresh = 1; shared = 0; pressure_evicted = pressure }
      end
      else if t.policy = Evict.Reject then
        (* both buckets full: under Reject nothing may be displaced (and
           nothing was evicted above, the table being under capacity) *)
        Install.Rejected { pressure_evicted = 0 }
      else begin
        (* displace a resident of b2 and re-home it down a bounded chain:
           the newcomer overwrites the first victim in place (net size
           unchanged — one in, one in hand), then the chain either finds
           the victim a home (net +1, counted by [fill_slot]) or drops the
           last displaced entry (net 0, one pressure eviction) *)
        let b = b2 in
        let base = b * bucket_width in
        let v = base + Gf_util.Rng.int t.rng bucket_width in
        let vkey = t.keys.(v) and vhit = t.hits.(v) and vlu = t.last_used.(v) in
        t.keys.(v) <- flow;
        t.hits.(v) <- hit;
        t.last_used.(v) <- now;
        let vb1 = bucket1 t vkey in
        let vb = if vb1 = b then alt_bucket t vkey vb1 else vb1 in
        let dropped = kick t ~depth:1 vb vkey vhit vlu in
        Install.Installed { fresh = 1; shared = 0; pressure_evicted = pressure + dropped }
      end
    end
  end

let expire t ~now ~max_idle =
  let n = ref 0 in
  for s = 0 to (t.nbuckets * bucket_width) - 1 do
    if t.occupied.(s) && now -. t.last_used.(s) > max_idle then begin
      clear_slot t s;
      incr n
    end
  done;
  !n

let invalidate_all t =
  let n = t.size in
  Array.fill t.occupied 0 (Array.length t.occupied) false;
  Array.fill t.keys 0 (Array.length t.keys) Flow.zero;
  Array.fill t.hits 0 (Array.length t.hits) dummy_hit;
  t.size <- 0;
  n
