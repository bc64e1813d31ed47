module Flow = Gf_flow.Flow
module Fmatch = Gf_flow.Fmatch
module Entry = Gf_classifier.Entry
module Searcher = Gf_classifier.Searcher
module Action = Gf_pipeline.Action
module Traversal = Gf_pipeline.Traversal
module Executor = Gf_pipeline.Executor

(* An all-float record is stored flat, so refreshing [last_used] on a hit
   boxes no float and runs no write barrier. *)
type clock = { mutable last_used : float }

type payload = {
  commit : (Gf_flow.Field.t * int) list;
  terminal : Action.terminal;
  parent_input : Flow.t; (* representative flow for revalidation *)
  version : int;
  clock : clock;
  mutable live : bool;
      (* flipped to false when the entry leaves the table, so a replay
         holding the entry can self-invalidate in O(1) without a global
         generation sweep (see [lookup_replay]) *)
}

type t = {
  mutable capacity : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  searcher : payload Searcher.t;
  by_fmatch : int Fmatch.Tbl.t; (* match -> classifier key *)
  by_key : (int, Fmatch.t * payload) Hashtbl.t;
  mutable next_key : int;
  mutable generation : int; (* bumped on any structural entry-set change *)
}

(* Indexes start small and grow with occupancy, not with the admission
   bound: a million-entry bound would otherwise allocate two 2^20-bucket
   arrays that the GC marks and every idle sweep folds, however few
   entries are resident. *)
let index_size capacity = min capacity 256

let create ?(search = `Tss) ?(policy = Evict.Reject) ?(rng_seed = 0x3F1A)
    ~capacity () =
  if capacity < 1 then invalid_arg "Megaflow.create: capacity must be >= 1";
  {
    capacity;
    policy;
    rng = Gf_util.Rng.create rng_seed;
    searcher = Searcher.create search;
    by_fmatch = Fmatch.Tbl.create (index_size capacity);
    by_key = Hashtbl.create (index_size capacity);
    next_key = 0;
    generation = 0;
  }

let capacity t = t.capacity
let policy t = t.policy
let set_policy t policy = t.policy <- policy

(* Shrinking the bound does not evict residents; it bites on the next
   install (which then evicts down under the evicting policies). *)
let set_capacity t capacity =
  if capacity < 1 then
    invalid_arg "Megaflow.set_capacity: capacity must be >= 1";
  t.capacity <- capacity

let occupancy t = Hashtbl.length t.by_key

(* One array copy for the whole commit (none when it is empty), not one
   [Flow.set] copy per field — this runs on every cache hit. *)
let apply_commit commit flow = Flow.update flow commit

let hit_of payload ~now flow =
  payload.clock.last_used <- now;
  Some { Hit.terminal = payload.terminal; out_flow = apply_commit payload.commit flow }

let lookup t ~now flow =
  let result, work = Searcher.lookup_disjoint t.searcher flow in
  match result with
  | Some entry -> (hit_of entry.Entry.payload ~now flow, work)
  | None -> (None, work)

(* [lookup] plus a replay of its per-packet effects.  A hit replays while
   its entry is [live]: entries are pairwise disjoint, so it stays the
   unique match whatever else is installed or evicted, and the ranked-TSS
   positional walk recomputes the probe count exactly.  Stateless search
   replays the hit's work verbatim, so it also needs [generation]
   unchanged.  A miss probes the whole entry set, so it replays while
   [generation] is unchanged.  Touch-only mutations (last-used refreshes,
   rank promotions) never stale a replay: it reapplies them. *)
let lookup_replay t ~now flow =
  let result, work = Searcher.lookup_disjoint t.searcher flow in
  let gen = t.generation in
  match result with
  | Some entry ->
      let payload = entry.Entry.payload in
      let replay =
        match Searcher.prepare_replay t.searcher entry with
        | Some probes ->
            fun ~now ->
              if payload.live then begin
                payload.clock.last_used <- now;
                probes ()
              end
              else -1
        | None ->
            fun ~now ->
              if payload.live && gen = t.generation then begin
                payload.clock.last_used <- now;
                work
              end
              else -1
      in
      (hit_of payload ~now flow, work, replay)
  | None -> (None, work, fun ~now:_ -> if gen = t.generation then work else -1)

(* Collapse a traversal into (match, commit, terminal). *)
let collapse traversal =
  let wildcard = Traversal.megaflow_wildcard traversal in
  let fmatch = Fmatch.v ~pattern:traversal.Traversal.input ~mask:wildcard in
  let commit =
    Traversal.segment_commit traversal ~first:0
      ~last:(Array.length traversal.Traversal.steps - 1)
  in
  (fmatch, commit, traversal.Traversal.terminal)

let remove_key t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> ()
  | Some (fmatch, payload) ->
      payload.live <- false;
      Hashtbl.remove t.by_key key;
      Fmatch.Tbl.remove t.by_fmatch fmatch;
      ignore (Searcher.remove t.searcher key)

(* Victim selection under capacity pressure.  [Lru] takes the least
   recently used entry; [Priority_aware] (Megaflow entries all share
   priority 0) prefers the oldest pipeline version, then LRU; [Random]
   takes a uniform entry.  Ties break towards the lowest key so a fixed
   seed replays identically. *)
let pick_victim t =
  let better (k, p) (k', p') =
    match t.policy with
    | Evict.Lru ->
        p.clock.last_used < p'.clock.last_used
        || (p.clock.last_used = p'.clock.last_used && k < k')
    | Evict.Priority_aware ->
        p.version < p'.version
        || (p.version = p'.version
           && (p.clock.last_used < p'.clock.last_used
              || (p.clock.last_used = p'.clock.last_used && k < k')))
    | Evict.Random | Evict.Reject -> k < k' (* unused; see below *)
  in
  match t.policy with
  | Evict.Reject -> None
  | Evict.Random ->
      let n = Hashtbl.length t.by_key in
      if n = 0 then None
      else begin
        let target = Gf_util.Rng.int t.rng n in
        let i = ref 0 and victim = ref None in
        Hashtbl.iter
          (fun k _ ->
            if !i = target then victim := Some k;
            incr i)
          t.by_key;
        !victim
      end
  | Evict.Lru | Evict.Priority_aware ->
      Hashtbl.fold
        (fun k (_, p) acc ->
          match acc with
          | Some best when not (better (k, p) best) -> acc
          | _ -> Some (k, p))
        t.by_key None
      |> Option.map fst

let install t ~now ~version traversal =
  let fmatch, commit, terminal = collapse traversal in
  match Fmatch.Tbl.find_opt t.by_fmatch fmatch with
  | Some key ->
      (match Hashtbl.find_opt t.by_key key with
      | Some (_, payload) -> payload.clock.last_used <- now
      | None ->
          (* by_fmatch and by_key index the same entry set; a key present in
             one but not the other means an eviction path forgot a table. *)
          assert false);
      Install.Installed { fresh = 0; shared = 0; pressure_evicted = 0 }
  | None ->
      let pressure = ref 0 in
      while
        occupancy t >= t.capacity
        &&
        match pick_victim t with
        | Some victim ->
            remove_key t victim;
            incr pressure;
            true
        | None -> false
      do
        ()
      done;
      if occupancy t >= t.capacity then Install.Rejected { pressure_evicted = 0 }
      else begin
        let key = t.next_key in
        t.next_key <- key + 1;
        let payload =
          {
            commit;
            terminal;
            parent_input = traversal.Traversal.input;
            version;
            clock = { last_used = now };
            live = true;
          }
        in
        Searcher.insert t.searcher (Entry.v ~key ~fmatch ~priority:0 payload);
        Fmatch.Tbl.replace t.by_fmatch fmatch key;
        Hashtbl.replace t.by_key key (fmatch, payload);
        (* Entry set changed (insert, plus any pressure evictions above):
           stale the generation-guarded replays. *)
        t.generation <- t.generation + 1;
        Install.Installed { fresh = 1; shared = 0; pressure_evicted = !pressure }
      end

let expire t ~now ~max_idle =
  let stale =
    Hashtbl.fold
      (fun key (_, payload) acc ->
        if now -. payload.clock.last_used > max_idle then key :: acc else acc)
      t.by_key []
  in
  List.iter (remove_key t) stale;
  if stale <> [] then t.generation <- t.generation + 1;
  List.length stale

(* Admission-sweep demotion: drop entries whose representative flow went
   cold according to the caller's hotness predicate (heavy-hitter sketch),
   freeing hardware slots for the current hot set.  Same machinery as
   {!expire}: removed entries flip [live] and bump the generation so
   replays self-invalidate. *)
let demote t ~is_hot =
  let cold =
    Hashtbl.fold
      (fun key (_, payload) acc ->
        if is_hot payload.parent_input then acc else key :: acc)
      t.by_key []
  in
  List.iter (remove_key t) cold;
  if cold <> [] then t.generation <- t.generation + 1;
  List.length cold

let revalidate t pipeline =
  let work = ref 0 in
  let victims =
    Hashtbl.fold
      (fun key (fmatch, payload) acc ->
        match Executor.execute pipeline payload.parent_input with
        | Error _ -> key :: acc
        | Ok traversal ->
            work := !work + Traversal.length traversal;
            let fmatch', commit', terminal' = collapse traversal in
            if
              Fmatch.equal fmatch fmatch'
              && payload.commit = commit'
              && Action.terminal_equal payload.terminal terminal'
            then acc
            else key :: acc)
      t.by_key []
  in
  List.iter (remove_key t) victims;
  if victims <> [] then t.generation <- t.generation + 1;
  (List.length victims, !work)

let entries_fmatches t = Fmatch.Tbl.fold (fun f _ acc -> f :: acc) t.by_fmatch []

let check_invariants t =
  Fmatch.Tbl.length t.by_fmatch = Hashtbl.length t.by_key
  && Fmatch.Tbl.fold
       (fun fmatch key ok ->
         ok
         &&
         match Hashtbl.find_opt t.by_key key with
         | Some (fmatch', _) -> Fmatch.equal fmatch fmatch'
         | None -> false)
       t.by_fmatch true
