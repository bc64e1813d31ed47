module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch
module Masked_tbl = Gf_flow.Masked_tbl

(* Tuples are threaded onto two intrusive doubly-linked lists:

   - the priority order ([order_prev] / [order_next]), max_priority
     descending, walked by [lookup].  A tuple is placed when created and
     re-placed when its max_priority changes, so no lookup ever sorts.
     Ties sit in any order: the scan stops only at a tuple whose
     max_priority is strictly below the best match so far, so tied tuples
     are probed all or none, and [Entry.better] is a total order — the
     winner and the probe count do not depend on the order among ties.
   - the hit-frequency order ([rank_prev] / [rank_next]) used by
     [lookup_first]: append, removal and promote-to-front are all O(1). *)
type 'a tuple = {
  mask : Mask.t;
  buckets : 'a Entry.t list Masked_tbl.t; (* best-first lists *)
  mutable max_priority : int;
  mutable max_count : int; (* entries at [max_priority] *)
  mutable count : int;
  mutable order_prev : 'a tuple option;
  mutable order_next : 'a tuple option;
  mutable rank_prev : 'a tuple option;
  mutable rank_next : 'a tuple option;
}

type 'a t = {
  by_key : (int, 'a Entry.t) Hashtbl.t;
  tuples : 'a tuple Mask.Tbl.t;
  mutable order_head : 'a tuple option; (* max_priority desc *)
  mutable rank_head : 'a tuple option; (* hit-frequency order (first-match mode) *)
  mutable rank_tail : 'a tuple option;
  mutable maxima : int array;
      (* [max_priority] of each tuple in priority order, in [0, maxima_len):
         what [probes_for] searches.  Rebuilt in place when [maxima_stale];
         grown by [insert] *)
  mutable maxima_len : int;
  mutable maxima_stale : bool; (* set by every change to the priority order *)
}

let algorithm = "tss"

let create () =
  {
    by_key = Hashtbl.create 64;
    tuples = Mask.Tbl.create 16;
    order_head = None;
    rank_head = None;
    rank_tail = None;
    maxima = [||];
    maxima_len = 0;
    maxima_stale = false;
  }

(* Link [tu] in before the first tuple at or below its max_priority. *)
let rec order_place_from t tu prev next =
  match next with
  | Some n when n.max_priority > tu.max_priority -> order_place_from t tu next n.order_next
  | _ ->
      t.maxima_stale <- true;
      tu.order_prev <- prev;
      tu.order_next <- next;
      (match next with Some n -> n.order_prev <- Some tu | None -> ());
      (match prev with Some p -> p.order_next <- Some tu | None -> t.order_head <- Some tu)

let order_place t tu = order_place_from t tu None t.order_head

let order_unlink t tu =
  t.maxima_stale <- true;
  (match tu.order_prev with
  | Some p -> p.order_next <- tu.order_next
  | None -> t.order_head <- tu.order_next);
  (match tu.order_next with Some n -> n.order_prev <- tu.order_prev | None -> ());
  tu.order_prev <- None;
  tu.order_next <- None

let order_replace t tu =
  order_unlink t tu;
  order_place t tu

let rank_append t tu =
  tu.rank_prev <- t.rank_tail;
  tu.rank_next <- None;
  (match t.rank_tail with
  | Some tail -> tail.rank_next <- Some tu
  | None -> t.rank_head <- Some tu);
  t.rank_tail <- Some tu

let rank_unlink t tu =
  (match tu.rank_prev with
  | Some p -> p.rank_next <- tu.rank_next
  | None -> t.rank_head <- tu.rank_next);
  (match tu.rank_next with
  | Some n -> n.rank_prev <- tu.rank_prev
  | None -> t.rank_tail <- tu.rank_prev);
  tu.rank_prev <- None;
  tu.rank_next <- None

(* A tuple below the head is relinked through the [Some tu] its
   predecessor already holds, so a promotion allocates nothing. *)
let rank_promote t tu =
  match t.rank_head with
  | Some head when head == tu -> ()
  | _ ->
      let self = match tu.rank_prev with Some p -> p.rank_next | None -> Some tu in
      rank_unlink t tu;
      tu.rank_next <- t.rank_head;
      (match t.rank_head with
      | Some head -> head.rank_prev <- self
      | None -> t.rank_tail <- self);
      t.rank_head <- self

let entry_order (a : 'a Entry.t) (b : 'a Entry.t) =
  if Entry.better a b then -1 else if Entry.better b a then 1 else 0

let insert t entry =
  if Hashtbl.mem t.by_key entry.Entry.key then invalid_arg "Tss.insert: duplicate key";
  Hashtbl.add t.by_key entry.Entry.key entry;
  let priority = entry.Entry.priority in
  let mask = Fmatch.mask entry.Entry.fmatch in
  let tuple =
    match Mask.Tbl.find_opt t.tuples mask with
    | Some tu ->
        if priority > tu.max_priority then begin
          tu.max_priority <- priority;
          tu.max_count <- 1;
          order_replace t tu
        end
        else if priority = tu.max_priority then tu.max_count <- tu.max_count + 1;
        tu
    | None ->
        let mask = Mask.intern mask in
        let tu =
          {
            mask;
            buckets = Masked_tbl.create mask 32;
            max_priority = priority;
            max_count = 1;
            count = 0;
            order_prev = None;
            order_next = None;
            rank_prev = None;
            rank_next = None;
          }
        in
        Mask.Tbl.add t.tuples mask tu;
        let n = Mask.Tbl.length t.tuples in
        if n > Array.length t.maxima then t.maxima <- Array.make (max 8 (2 * n)) 0;
        order_place t tu;
        rank_append t tu;
        tu
  in
  let key = Fmatch.pattern entry.Entry.fmatch in
  let existing = Option.value ~default:[] (Masked_tbl.find_opt tuple.buckets key) in
  Masked_tbl.replace tuple.buckets key (List.sort entry_order (entry :: existing));
  tuple.count <- tuple.count + 1

(* Only when the last entry at the max leaves a non-empty tuple: never for
   tuples whose entries share one priority (all of Megaflow's).  Buckets
   are best-first, so each contributes its leading run of equal
   priorities. *)
let rec count_at p n = function
  | (e : 'a Entry.t) :: rest when e.priority = p -> count_at p (n + 1) rest
  | _ -> n

let recompute_max tuple =
  let max, n =
    Masked_tbl.fold
      (fun _ entries ((m, n) as acc) ->
        match entries with
        | [] -> acc
        | (e : 'a Entry.t) :: _ ->
            if e.priority > m then (e.priority, count_at e.priority 0 entries)
            else if e.priority = m then (m, count_at m n entries)
            else acc)
      tuple.buckets (min_int, 0)
  in
  tuple.max_priority <- max;
  tuple.max_count <- n

let remove t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> false
  | Some entry ->
      Hashtbl.remove t.by_key key;
      let mask = Fmatch.mask entry.Entry.fmatch in
      (match Mask.Tbl.find_opt t.tuples mask with
      | None -> ()
      | Some tuple ->
          let bucket_key = Fmatch.pattern entry.Entry.fmatch in
          (match Masked_tbl.find_opt tuple.buckets bucket_key with
          | None -> ()
          | Some entries ->
              let remaining = List.filter (fun (e : 'a Entry.t) -> e.key <> key) entries in
              if remaining = [] then Masked_tbl.remove tuple.buckets bucket_key
              else Masked_tbl.replace tuple.buckets bucket_key remaining);
          tuple.count <- tuple.count - 1;
          if tuple.count <= 0 then begin
            Mask.Tbl.remove t.tuples mask;
            order_unlink t tuple;
            rank_unlink t tuple
          end
          else if entry.Entry.priority = tuple.max_priority then begin
            tuple.max_count <- tuple.max_count - 1;
            if tuple.max_count = 0 then begin
              recompute_max tuple;
              order_replace t tuple
            end
          end);
      true

let size t = Hashtbl.length t.by_key

(* Top-level probe loop: a local [let rec] closing over [flow] would be
   allocated on every lookup. *)
let rec lookup_from flow node best probes =
  match node with
  | None -> (best, probes)
  | Some tuple -> (
      match best with
      | Some (b : 'a Entry.t) when b.priority > tuple.max_priority -> (best, probes)
      | _ ->
          let candidate =
            match Masked_tbl.find_opt tuple.buckets flow with
            | Some (e :: _) -> Some e
            | Some [] | None -> None
          in
          let best =
            match (best, candidate) with
            | None, c -> c
            | b, None -> b
            | Some b, Some c -> if Entry.better c b then candidate else best
          in
          lookup_from flow tuple.order_next best (probes + 1))

let lookup t flow = lookup_from flow t.order_head None 0

(* First-match walk over hit-frequency-ranked tuples: sound when entries are
   pairwise disjoint (at most one can match), which Megaflow guarantees by
   construction.  A hit promotes its tuple to the front (O(1) on the
   intrusive list), so hot tuples are probed first — the ranked-subtable
   optimisation of OVS's dpcls. *)
let rec first_from t flow node probes =
  match node with
  | None -> (None, probes)
  | Some tuple -> (
      let probes = probes + 1 in
      match Masked_tbl.find_opt tuple.buckets flow with
      | Some (e :: _) ->
          rank_promote t tuple;
          (Some e, probes)
      | Some [] | None -> first_from t flow tuple.rank_next probes)

let lookup_first t flow = first_from t flow t.rank_head 0

(* Probes a first-match walk from [node] pays to reach [tuple], or -1 when
   [tuple] is not ranked.  A top-level loop, so it allocates no closure. *)
let rec rank_pos tuple node probes =
  match node with
  | None -> -1
  | Some tu -> if tu == tuple then probes + 1 else rank_pos tuple tu.rank_next (probes + 1)

(* Compiled replay of a first-match hit on [entry]: locate the entry's
   tuple once (one mask hash), and return a closure that recomputes the
   probe count a live [lookup_first] would pay {e right now} to reach that
   tuple (its rank position drifts as other flows promote their tuples)
   and applies the same promotion — without re-masking the flow or
   re-probing any bucket.  Sound whenever [entry] is still stored and
   entries are pairwise disjoint, even across unrelated inserts/removals:
   the positional walk counts exactly the tuples a live walk would probe
   before the (unique) match.  The captured tuple stays the entry's
   container for as long as the entry is in the classifier (entries never
   migrate between tuples), so callers may hold the closure until the
   entry is removed. *)
let prepare_first t (entry : 'a Entry.t) =
  match Mask.Tbl.find_opt t.tuples (Fmatch.mask entry.Entry.fmatch) with
  | None -> None
  | Some tuple ->
      Some
        (fun () ->
          let probes = rank_pos tuple t.rank_head 0 in
          if probes < 0 then invalid_arg "Tss.prepare_first: tuple left the rank list";
          rank_promote t tuple;
          probes)

(* Copy the priority order's maxima into [t.maxima], which [insert] keeps
   at least as long as the tuple count. *)
let rec fill_maxima a i = function
  | None -> ()
  | Some tu ->
      Array.unsafe_set a i tu.max_priority;
      fill_maxima a (i + 1) tu.order_next

let refresh_maxima t =
  fill_maxima t.maxima 0 t.order_head;
  t.maxima_len <- Mask.Tbl.length t.tuples;
  t.maxima_stale <- false

(* A [lookup] probes the tuples in descending [max_priority] order until
   one sits strictly below the best match so far.  So a lookup whose
   winner has priority [p] probes exactly the tuples whose maximum is at
   least [p]: every such tuple is reached before the winner's own tuple
   stops the scan (the best so far never exceeds [p]), and the winner's
   tuple comes before every tuple below [p].  A miss probes them all
   ([p = min_int]).  Binary search over the descending maxima. *)
let probes_for t p =
  if t.maxima_stale then refresh_maxima t;
  let a = t.maxima in
  let lo = ref 0 and hi = ref t.maxima_len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get a mid >= p then lo := mid + 1 else hi := mid
  done;
  !lo

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_key []

let clear t =
  Hashtbl.reset t.by_key;
  Mask.Tbl.reset t.tuples;
  t.order_head <- None;
  t.rank_head <- None;
  t.rank_tail <- None;
  t.maxima_len <- 0;
  t.maxima_stale <- false

let tuple_count t = Mask.Tbl.length t.tuples
