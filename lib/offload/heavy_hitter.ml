module Flow = Gf_flow.Flow

(* Stream-summary layout: rows [0, size) of the flat arrays hold the tracked
   entries sorted by count descending, so the minimum entry is row
   [size - 1].  An increment of row [i] swaps it with the leftmost row of
   its equal-count run (one swap keeps the rows sorted), then bumps the
   count there.  [min_head] is the leftmost row of the minimum-count run:
   a bump inside that run (every replacement lands there) finds its run
   head in O(1), as does a bump of a row alone in its run; any other bump
   binary-searches the sorted prefix.

   Row index: open addressing with linear probing.  A slot of [slot_row]
   holds row + 1 (0 = empty) and the same slot of [slot_hash] the flow's
   full hash, so a probe compares hashes before [Flow.equal] and a
   backward-shift delete finds each entry's home slot without rehashing.
   [row_slot] is the inverse map: moving a row re-points its slot in O(1).
   The slot count is a power of two of at least [2k], so the load stays at
   most one half.

   Every loop is a top-level recursive function: a local [let rec] would
   allocate its closure on each call, and [observe] allocates nothing. *)
type t = {
  mutable k : int;
  mutable flows : Flow.t array;
  mutable counts : int array;
  mutable errs : int array;
  mutable row_slot : int array;
  mutable slot_row : int array;
  mutable slot_hash : int array;
  mutable mask : int;  (* slot count - 1 *)
  mutable size : int;
  mutable min_head : int;  (* meaningful while [size > 0] *)
  mutable observed : int;
  mutable last_guaranteed : int;
}

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)
let slot_count k = pow2_at_least (2 * k) 2

let create ~k =
  if k < 1 then invalid_arg "Heavy_hitter.create: k must be >= 1";
  let slots = slot_count k in
  {
    k;
    flows = Array.make k Flow.zero;
    counts = Array.make k 0;
    errs = Array.make k 0;
    row_slot = Array.make k 0;
    slot_row = Array.make slots 0;
    slot_hash = Array.make slots 0;
    mask = slots - 1;
    size = 0;
    min_head = 0;
    observed = 0;
    last_guaranteed = 0;
  }

let k t = t.k
let size t = t.size
let observed t = t.observed
let last_guaranteed t = t.last_guaranteed

(* ------------------------------ row index ----------------------------- *)

(* The slot holding [flow] (hash [h]) if it is tracked, else [-1 - e] for
   the empty slot [e] that ends its probe sequence. *)
let rec probe t flow h s =
  let r = t.slot_row.(s) in
  if r = 0 then -1 - s
  else if t.slot_hash.(s) = h && Flow.equal t.flows.(r - 1) flow then s
  else probe t flow h ((s + 1) land t.mask)

let rec first_empty t s =
  if t.slot_row.(s) = 0 then s else first_empty t ((s + 1) land t.mask)

let place t s h row =
  t.slot_row.(s) <- row + 1;
  t.slot_hash.(s) <- h;
  t.row_slot.(row) <- s

(* Backward-shift delete: [hole] was just vacated; walk the cluster after
   it and pull back every entry whose home slot does not lie cyclically in
   (hole, s], so no probe sequence ever crosses an empty slot. *)
let rec shift_back t hole s =
  let r = t.slot_row.(s) in
  if r = 0 then t.slot_row.(hole) <- 0
  else if (s - t.slot_hash.(s)) land t.mask >= (s - hole) land t.mask then begin
    place t hole t.slot_hash.(s) (r - 1);
    shift_back t s ((s + 1) land t.mask)
  end
  else shift_back t hole ((s + 1) land t.mask)

let unindex t row =
  let s = t.row_slot.(row) in
  shift_back t s ((s + 1) land t.mask)

(* The row tracking [flow], or -1. *)
let find_row t flow =
  let h = Flow.hash flow in
  let s = probe t flow h (h land t.mask) in
  if s >= 0 then t.slot_row.(s) - 1 else -1

(* ------------------------------- counting ----------------------------- *)

(* Leftmost row of [lo, hi] whose count is at most [c], given that row
   [hi]'s is: the head of [c]'s run when rows [lo, hi] all count >= c. *)
let rec run_head counts c lo hi =
  if lo >= hi then hi
  else
    let mid = (lo + hi) lsr 1 in
    if counts.(mid) <= c then run_head counts c lo mid
    else run_head counts c (mid + 1) hi

let swap_rows t i j =
  let f = t.flows.(i) in
  t.flows.(i) <- t.flows.(j);
  t.flows.(j) <- f;
  let e = t.errs.(i) in
  t.errs.(i) <- t.errs.(j);
  t.errs.(j) <- e;
  let si = t.row_slot.(i) and sj = t.row_slot.(j) in
  t.row_slot.(i) <- sj;
  t.row_slot.(j) <- si;
  t.slot_row.(si) <- j + 1;
  t.slot_row.(sj) <- i + 1

let reset_min_head t =
  if t.size > 0 then
    t.min_head <- run_head t.counts t.counts.(t.size - 1) 0 (t.size - 1)

(* Move row [i] (count c) to the head of its run and bump it to c+1.  The
   counts of the two swapped rows are equal, so only flows, errors and the
   index move.  A row alone in its run needs no search: that is the common
   bump under skew, where the elephants' counts are distinct. *)
let bump t i =
  let c = t.counts.(i) in
  let last = t.size - 1 in
  let in_min_run = c = t.counts.(last) in
  let j =
    if in_min_run then t.min_head
    else if i = 0 || t.counts.(i - 1) > c then i
    else run_head t.counts c 0 (i - 1)
  in
  if j <> i then swap_rows t i j;
  t.counts.(j) <- c + 1;
  (* Only a bump inside the minimum run moves it: the run now starts one
     row later, or, if row [j] was all of it, the minimum becomes c+1,
     whose run ends at [j]. *)
  if in_min_run then
    t.min_head <- (if j < last then j + 1 else run_head t.counts (c + 1) 0 j);
  t.last_guaranteed <- c + 1 - t.errs.(j)

let observe t flow =
  t.observed <- t.observed + 1;
  let h = Flow.hash flow in
  let s = probe t flow h (h land t.mask) in
  if s >= 0 then bump t (t.slot_row.(s) - 1)
  else if t.size < t.k then begin
    (* A new row enters at the bottom with count 1: it joins the minimum
       run if that run counts 1, else starts a new one. *)
    let i = t.size in
    t.flows.(i) <- flow;
    t.counts.(i) <- 1;
    t.errs.(i) <- 0;
    place t (-1 - s) h i;
    if i = 0 || t.counts.(i - 1) > 1 then t.min_head <- i;
    t.size <- i + 1;
    t.last_guaranteed <- 1
  end
  else begin
    (* Replace the minimum entry; its count becomes the newcomer's error
       bound (space-saving inheritance).  The delete may open an empty
       slot on the newcomer's probe path, so its slot is probed afresh. *)
    let i = t.size - 1 in
    unindex t i;
    place t (first_empty t (h land t.mask)) h i;
    t.flows.(i) <- flow;
    t.errs.(i) <- t.counts.(i);
    bump t i
  end

let count t flow =
  let i = find_row t flow in
  if i >= 0 then t.counts.(i) else 0

let guaranteed t flow =
  let i = find_row t flow in
  if i >= 0 then t.counts.(i) - t.errs.(i) else 0

let hot t ~threshold flow = guaranteed t flow >= threshold

let decay t =
  (* Halving is monotone, so the rows stay sorted, and every count is
     >= 1, so the rows that reach zero (count 1) are a suffix. *)
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let c = t.counts.(i) / 2 in
    if c = 0 then unindex t i
    else begin
      t.counts.(i) <- c;
      t.errs.(i) <- t.errs.(i) / 2;
      incr live
    end
  done;
  t.size <- !live;
  reset_min_head t

let retarget t ~k =
  if k < 1 then invalid_arg "Heavy_hitter.retarget: k must be >= 1";
  if k <> t.k then begin
    (* Rows are sorted by count descending, so truncation on shrink drops
       exactly the lowest-count entries.  The index is rebuilt at the new
       size from the stored hashes. *)
    let size = min t.size k in
    let old_row_slot = t.row_slot and old_slot_hash = t.slot_hash in
    let flows = Array.make k Flow.zero in
    let counts = Array.make k 0 in
    let errs = Array.make k 0 in
    Array.blit t.flows 0 flows 0 size;
    Array.blit t.counts 0 counts 0 size;
    Array.blit t.errs 0 errs 0 size;
    let slots = slot_count k in
    t.flows <- flows;
    t.counts <- counts;
    t.errs <- errs;
    t.row_slot <- Array.make k 0;
    t.slot_row <- Array.make slots 0;
    t.slot_hash <- Array.make slots 0;
    t.mask <- slots - 1;
    t.k <- k;
    t.size <- size;
    for i = 0 to size - 1 do
      let h = old_slot_hash.(old_row_slot.(i)) in
      place t (first_empty t (h land t.mask)) h i
    done;
    reset_min_head t
  end

(* No empty slot between [s] and [target], walking forward. *)
let rec reachable t s target =
  s = target || (t.slot_row.(s) <> 0 && reachable t ((s + 1) land t.mask) target)

let check_invariants t =
  let slots = Array.length t.slot_row in
  let ok =
    ref
      (t.size >= 0 && t.size <= t.k
      && slots land (slots - 1) = 0
      && slots >= 2 * t.k
      && t.mask = slots - 1)
  in
  (* counts sorted descending and positive, errors within the
     space-saving bound *)
  for i = 0 to t.size - 1 do
    if t.counts.(i) < 1 || (i > 0 && t.counts.(i) > t.counts.(i - 1)) then ok := false;
    if t.errs.(i) < 0 || t.errs.(i) > t.counts.(i) then ok := false
  done;
  (* min_head is the leftmost row of the minimum-count run *)
  if t.size > 0 then begin
    let m = t.counts.(t.size - 1) in
    if t.min_head < 0 || t.min_head >= t.size || t.counts.(t.min_head) <> m then
      ok := false
    else if t.min_head > 0 && t.counts.(t.min_head - 1) = m then ok := false
  end;
  (* the index holds exactly the live rows, each with its flow's hash, in
     a slot its probe sequence reaches *)
  let occupied = Array.fold_left (fun n r -> if r <> 0 then n + 1 else n) 0 t.slot_row in
  if occupied <> t.size then ok := false;
  for i = 0 to t.size - 1 do
    let s = t.row_slot.(i) in
    let h = Flow.hash t.flows.(i) in
    if s < 0 || s >= slots || t.slot_row.(s) <> i + 1 || t.slot_hash.(s) <> h then
      ok := false
    else if not (reachable t (h land t.mask) s) then ok := false
  done;
  !ok

let top t ~n =
  let rows = ref [] in
  for i = t.size - 1 downto 0 do
    rows := (t.flows.(i), t.counts.(i), t.errs.(i)) :: !rows
  done;
  let cmp (f1, c1, e1) (f2, c2, e2) =
    if c1 <> c2 then compare c2 c1
    else if e1 <> e2 then compare e1 e2
    else Flow.compare f1 f2
  in
  let sorted = List.stable_sort cmp !rows in
  List.filteri (fun i _ -> i < n) sorted

(* ---------------------------------------------------------------- *)
(* Admission policy                                                 *)
(* ---------------------------------------------------------------- *)

type policy = Admit_all | Heavy_hitter of { k : int; threshold : int }

let default_k = 128
let default_threshold = 4

let policy_to_string = function
  | Admit_all -> "all"
  | Heavy_hitter { k; threshold } -> Printf.sprintf "hh:%d@%d" k threshold

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "all" | "none" | "off" -> Ok Admit_all
  | "hh" ->
      Ok (Heavy_hitter { k = default_k; threshold = default_threshold })
  | s when String.length s > 3 && String.sub s 0 3 = "hh:" -> (
      let rest = String.sub s 3 (String.length s - 3) in
      match int_of_string_opt rest with
      | Some k when k >= 1 ->
          Ok (Heavy_hitter { k; threshold = default_threshold })
      | _ -> Error (Printf.sprintf "bad heavy-hitter K in %S" s))
  | _ ->
      Error
        (Printf.sprintf "unknown admission policy %S (expected all|hh|hh:K)" s)

let policy_with_threshold p threshold =
  match p with
  | Admit_all -> Admit_all
  | Heavy_hitter { k; _ } -> Heavy_hitter { k; threshold }
