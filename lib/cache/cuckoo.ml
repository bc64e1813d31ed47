module Flow = Gf_flow.Flow

let bucket_width = 4
let full_lanes = (1 lsl bucket_width) - 1
let max_kicks = 8

(* Dense buckets a fresh (or flushed) table has room for before growing. *)
let initial_dense = 8

(* The logical geometry ([nbuckets] buckets of [bucket_width] lanes) is
   fixed at creation, but only the buckets holding a resident have
   storage.  [dir] maps a logical bucket to its dense bucket, stored as
   index + 1 in 4 native-endian bytes (0 = no storage): a byte string the
   GC never scans.  Dense bucket [d] owns slots [d * bucket_width ..] of
   [keys], [hits] and [last_used]; [lanes.(d)] is its lane occupancy
   bitmask (a key alone cannot say its lane is live: Flow.zero is a legal
   key) and [owner.(d)] its logical bucket.  A bucket that empties is
   swap-removed, so the [dense] buckets in use are never empty. *)
type t = {
  mutable capacity : int;
  nbuckets : int; (* power of two *)
  bmask : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  dir : Bytes.t;
  mutable owner : int array;
  mutable lanes : int array;
  mutable keys : Flow.t array;
  mutable hits : Hit.t option array; (* boxed at install: a lookup hit allocates nothing *)
  mutable last_used : float array;
  mutable dense : int;
  mutable size : int;
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

(* Dense bucket of logical bucket [b], or -1 when it has no storage
   (what [set_dense t b (-1)] records). *)
let dense_of t b = Int32.to_int (get32 t.dir (b lsl 2)) - 1
let set_dense t b d = set32 t.dir (b lsl 2) (Int32.of_int (d + 1))

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let alloc_dense t n =
  t.owner <- Array.make n 0;
  t.lanes <- Array.make n 0;
  t.keys <- Array.make (n * bucket_width) Flow.zero;
  t.hits <- Array.make (n * bucket_width) None;
  t.last_used <- Array.make (n * bucket_width) 0.0

let create ?(policy = Evict.Lru) ?(rng_seed = 0xCC00) ~capacity () =
  if capacity < 1 then invalid_arg "Cuckoo.create: capacity must be >= 1";
  (* size buckets so [capacity] live entries sit at <= 80% load *)
  let want_slots = (capacity * 5 / 4) + bucket_width in
  let nbuckets = next_pow2 ((want_slots + bucket_width - 1) / bucket_width) in
  let t =
    {
      capacity;
      nbuckets;
      bmask = nbuckets - 1;
      policy;
      rng = Gf_util.Rng.create rng_seed;
      dir = Bytes.make (nbuckets * 4) '\000';
      owner = [||];
      lanes = [||];
      keys = [||];
      hits = [||];
      last_used = [||];
      dense = 0;
      size = 0;
    }
  in
  alloc_dense t (min nbuckets initial_dense);
  t

let capacity t = t.capacity
let slots t = t.nbuckets * bucket_width
let policy t = t.policy
let set_policy t policy = t.policy <- policy

(* The admission bound may move online; the logical geometry is fixed, so
   the new bound is clamped to the slot count.  Shrinking does not evict
   residents — the bound bites on the next install. *)
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

let rec find_lane t key m base i =
  if i = bucket_width then -1
  else if m land (1 lsl i) <> 0 && Flow.equal t.keys.(base + i) key then base + i
  else find_lane t key m base (i + 1)

(* Dense slot holding [key] in logical bucket [b], or -1. *)
let find_in_bucket t b key =
  let d = dense_of t b in
  if d < 0 then -1 else find_lane t key t.lanes.(d) (d * bucket_width) 0

let find_slot t key =
  let b1 = bucket1 t key in
  let s = find_in_bucket t b1 key in
  if s >= 0 then s else find_in_bucket t (alt_bucket t key b1) key

let rec lowest_clear m i = if m land (1 lsl i) = 0 then i else lowest_clear m (i + 1)

(* First free lane of logical bucket [b] (lane 0 of a bucket without
   storage), or -1 when all four are live. *)
let free_lane t b =
  let d = dense_of t b in
  if d < 0 then 0
  else
    let m = t.lanes.(d) in
    if m = full_lanes then -1 else lowest_clear m 0

let lookup t ~now flow =
  let s = find_slot t flow in
  if s >= 0 then begin
    t.last_used.(s) <- now;
    t.hits.(s)
  end
  else None

let grow t =
  let n = Array.length t.owner in
  let owner = t.owner and lanes = t.lanes and keys = t.keys and hits = t.hits in
  let last_used = t.last_used in
  alloc_dense t (min t.nbuckets (2 * n));
  Array.blit owner 0 t.owner 0 n;
  Array.blit lanes 0 t.lanes 0 n;
  Array.blit keys 0 t.keys 0 (n * bucket_width);
  Array.blit hits 0 t.hits 0 (n * bucket_width);
  Array.blit last_used 0 t.last_used 0 (n * bucket_width)

(* Dense bucket of logical bucket [b], appending one if it has none. *)
let claim t b =
  let d = dense_of t b in
  if d >= 0 then d
  else begin
    if t.dense = Array.length t.owner then grow t;
    let d = t.dense in
    t.dense <- d + 1;
    t.owner.(d) <- b;
    t.lanes.(d) <- 0;
    set_dense t b d;
    d
  end

(* Swap-remove the emptied dense bucket [d]: the last dense bucket moves
   into its place and the directory follows it. *)
let release t d =
  set_dense t t.owner.(d) (-1);
  let last = t.dense - 1 in
  let base = last * bucket_width in
  if d <> last then begin
    let b = t.owner.(last) in
    t.owner.(d) <- b;
    t.lanes.(d) <- t.lanes.(last);
    Array.blit t.keys base t.keys (d * bucket_width) bucket_width;
    Array.blit t.hits base t.hits (d * bucket_width) bucket_width;
    Array.blit t.last_used base t.last_used (d * bucket_width) bucket_width;
    set_dense t b d
  end;
  Array.fill t.keys base bucket_width Flow.zero;
  Array.fill t.hits base bucket_width None;
  t.dense <- last

(* Empty the lanes [drop] (a bitmask of live lanes) of dense bucket [d]. *)
let drop_lanes t d drop =
  let base = d * bucket_width in
  for i = 0 to bucket_width - 1 do
    if drop land (1 lsl i) <> 0 then begin
      t.keys.(base + i) <- Flow.zero;
      t.hits.(base + i) <- None
    end
  done;
  t.size <- t.size - Gf_util.Bitops.popcount drop;
  let m = t.lanes.(d) land lnot drop in
  t.lanes.(d) <- m;
  if m = 0 then release t d

let clear_slot t s = drop_lanes t (s / bucket_width) (1 lsl (s land (bucket_width - 1)))

(* Fill the free lane [lane] of logical bucket [b]. *)
let fill_lane t b lane key hit now =
  let d = claim t b in
  let s = (d * bucket_width) + lane in
  t.lanes.(d) <- t.lanes.(d) lor (1 lsl lane);
  t.size <- t.size + 1;
  t.keys.(s) <- key;
  t.hits.(s) <- hit;
  t.last_used.(s) <- now

let lane_mask t d = if d < 0 then 0 else t.lanes.(d)

(* Lane of the [k]-th (from 0) set bit of [m]. *)
let rec nth_lane m k i =
  if m land (1 lsl i) = 0 then nth_lane m k (i + 1)
  else if k = 0 then i
  else nth_lane m (k - 1) (i + 1)

(* The least recently used live slot of dense bucket [d] or [best],
   scanning lanes from the top so the first of equals wins. *)
let lru_in t d best =
  let best = ref best in
  let m = lane_mask t d in
  for i = bucket_width - 1 downto 0 do
    if m land (1 lsl i) <> 0 then begin
      let s = (d * bucket_width) + i in
      if !best < 0 || t.last_used.(s) < t.last_used.(!best) then best := s
    end
  done;
  !best

(* Victim slot among the live slots of buckets [b1]/[b2] for the evicting
   policies, or -1 when both are empty.  Exact-match entries carry no
   priority, so [Priority_aware] degenerates to recency, like the EMC.
   [Lru] takes the first of equals from b2's top lane down to b1's lane 0;
   [Random] draws over b1's live lanes then b2's, in lane order. *)
let pick_victim t b1 b2 =
  let d1 = dense_of t b1 in
  let d2 = if b2 <> b1 then dense_of t b2 else -1 in
  let m1 = lane_mask t d1 and m2 = lane_mask t d2 in
  let n1 = Gf_util.Bitops.popcount m1 in
  let n = n1 + Gf_util.Bitops.popcount m2 in
  if n = 0 then -1
  else
    match t.policy with
    | Evict.Reject -> -1
    | Evict.Lru | Evict.Priority_aware -> lru_in t d1 (lru_in t d2 (-1))
    | Evict.Random ->
        let k = Gf_util.Rng.int t.rng n in
        if k < n1 then (d1 * bucket_width) + nth_lane m1 k 0
        else (d2 * bucket_width) + nth_lane m2 (k - n1) 0

(* The victim of an install over the bound whose two buckets hold no
   resident: the least recently used resident for [Lru] and
   [Priority_aware] (the lowest logical slot of equals), a seeded draw
   over the residents in logical slot order for [Random].  O(residents),
   and only in that case. *)
let table_victim t =
  match t.policy with
  | Evict.Reject -> -1
  | Evict.Lru | Evict.Priority_aware ->
      let best = ref (-1) and best_slot = ref max_int in
      for d = 0 to t.dense - 1 do
        for i = 0 to bucket_width - 1 do
          if t.lanes.(d) land (1 lsl i) <> 0 then begin
            let s = (d * bucket_width) + i and slot = (t.owner.(d) * bucket_width) + i in
            if
              !best < 0
              || t.last_used.(s) < t.last_used.(!best)
              || (t.last_used.(s) = t.last_used.(!best) && slot < !best_slot)
            then begin
              best := s;
              best_slot := slot
            end
          end
        done
      done;
      !best
  | Evict.Random ->
      let order = Array.init t.dense Fun.id in
      Array.sort (fun a b -> compare t.owner.(a) t.owner.(b)) order;
      let rec nth j k =
        let d = order.(j) in
        let n = Gf_util.Bitops.popcount t.lanes.(d) in
        if k < n then (d * bucket_width) + nth_lane t.lanes.(d) k 0 else nth (j + 1) (k - n)
      in
      nth 0 (Gf_util.Rng.int t.rng t.size)

(* Re-home displaced entries for up to [max_kicks] hops: a full bucket
   hands a random lane to the entry in hand and the lane's old entry moves
   on to its other bucket.  On exhaustion the last displaced entry is
   dropped (one pressure eviction). *)
let rec kick t ~depth b key hit lu =
  let lane = free_lane t b in
  if lane >= 0 then begin
    fill_lane t b lane key hit lu;
    0
  end
  else if depth >= max_kicks then 1
  else begin
    let v = (dense_of t b * bucket_width) + Gf_util.Rng.int t.rng bucket_width in
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
    t.hits.(s) <- Some hit;
    t.last_used.(s) <- now;
    Install.Installed { fresh = 1; shared = 0; pressure_evicted = 0 }
  end
  else begin
    let b1 = bucket1 t flow in
    let b2 = alt_bucket t flow b1 in
    if t.size >= t.capacity && t.policy = Evict.Reject then
      Install.Rejected { pressure_evicted = 0 }
    else begin
      (* An evicting policy at or over a bound >= 1 evicts down to one
         below it (more than one victim only after the bound shrank), so
         residents exist for every victim. *)
      let pressure = ref 0 in
      while t.size >= t.capacity do
        let v = pick_victim t b1 b2 in
        clear_slot t (if v >= 0 then v else table_victim t);
        incr pressure
      done;
      let pressure = !pressure in
      let hit = Some hit in
      let installed pressure_evicted =
        Install.Installed { fresh = 1; shared = 0; pressure_evicted }
      in
      let b, lane =
        let lane = free_lane t b1 in
        if lane >= 0 then (b1, lane) else (b2, free_lane t b2)
      in
      if lane >= 0 then begin
        fill_lane t b lane flow hit now;
        installed pressure
      end
      else if t.policy = Evict.Reject then
        (* both buckets full: under Reject nothing may be displaced (and
           nothing was evicted above, the table being under capacity) *)
        Install.Rejected { pressure_evicted = 0 }
      else
        (* displace a resident of b2 and re-home it down a bounded chain:
           the newcomer overwrites the first victim in place (net size
           unchanged — one in, one in hand), then the chain either finds
           the victim a home (net +1, counted by [fill_lane]) or drops the
           last displaced entry (net 0, one pressure eviction); b2 is full,
           so the chain's first hop is that displacement *)
        installed (pressure + kick t ~depth:0 b2 flow hit now)
    end
  end

let expire t ~now ~max_idle =
  let n = ref 0 in
  (* Downwards, so the bucket a swap-remove moves into [d] was already
     swept. *)
  for d = t.dense - 1 downto 0 do
    let m = t.lanes.(d) in
    let idle = ref 0 in
    for i = 0 to bucket_width - 1 do
      if m land (1 lsl i) <> 0 && now -. t.last_used.((d * bucket_width) + i) > max_idle
      then idle := !idle lor (1 lsl i)
    done;
    if !idle <> 0 then begin
      n := !n + Gf_util.Bitops.popcount !idle;
      drop_lanes t d !idle
    end
  done;
  !n

let invalidate_all t =
  let n = t.size in
  for d = 0 to t.dense - 1 do
    set_dense t t.owner.(d) (-1)
  done;
  alloc_dense t (min t.nbuckets initial_dense);
  t.dense <- 0;
  t.size <- 0;
  n
