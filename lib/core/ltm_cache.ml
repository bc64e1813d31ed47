module Action = Gf_pipeline.Action
module Flow = Gf_flow.Flow
module Evict = Gf_cache.Evict
module Install = Gf_cache.Install

type t = {
  mutable config : Config.t;
  rng : Gf_util.Rng.t;
  tables : Ltm_table.t array;
  mutable generation : int; (* bumped on any structural entry-set change *)
  mutable last_depth : int;
      (* tables matched by the most recent lookup: the tag-chain reuse
         depth on a hit, the partial-prefix progress on a miss (non-zero
         means the chain matched a prefix then dead-ended — a stall).
         Read by the tracer and by [Datapath.miss_cause], which resolves
         a miss with non-zero depth to [Tag_chain_stall]; never feeds
         back into cache behaviour. *)
}

let create ?(rng_seed = 0x61F) config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ltm_cache.create: " ^ msg));
  {
    config;
    rng = Gf_util.Rng.create rng_seed;
    tables =
      Array.init config.Config.tables (fun _ ->
          Ltm_table.create ~capacity:config.Config.table_capacity);
    generation = 0;
    last_depth = 0;
  }

let config t = t.config
let last_depth t = t.last_depth

(* Replacement policy is read per install from [t.config], so swapping the
   config record is the whole actuation; geometry fields are untouched. *)
let set_policy t policy = t.config <- { t.config with Config.policy }

let occupancy t = Array.fold_left (fun acc table -> acc + Ltm_table.occupancy table) 0 t.tables

let table_occupancies t = Array.map Ltm_table.occupancy t.tables

let available_tables t =
  Array.fold_left (fun acc table -> if Ltm_table.is_full table then acc else acc + 1) 0 t.tables

(* The LTM walk from table [i] on: the hit (if the chain completes), the
   work so far and the matched entries, most recent first.  A top-level
   loop, so a lookup allocates no closure. *)
let rec walk tables ~now i tag flow work matched =
  if i >= Array.length tables then (None, work, matched)
  else begin
    let stored, w = Ltm_table.lookup tables.(i) ~tag flow in
    let work = work + w in
    match stored with
    | None -> walk tables ~now (i + 1) tag flow work matched
    | Some s -> (
        s.Ltm_table.clock.last_used <- now;
        let matched = s :: matched in
        let rule = s.Ltm_table.rule in
        let flow = Flow.update flow rule.Ltm_rule.commit in
        match rule.Ltm_rule.next with
        | Ltm_rule.Done terminal ->
            (Some { Gf_cache.Hit.terminal; out_flow = flow }, work, matched)
        | Ltm_rule.Next_tag tag -> walk tables ~now (i + 1) tag flow work matched)
  end

(* [walk] recording a [Ltm_table.visit] per table visited instead of the
   matched entries, for [lookup_replay].  Kept apart from [walk]: the
   visits would cost the walker, which holds no replay, half again its
   allocation per lookup. *)
let rec walk_visits tables ~now i tag flow work visits =
  if i >= Array.length tables then (None, work, visits)
  else begin
    let v, w = Ltm_table.lookup_visit tables.(i) ~tag flow in
    let work = work + w and visits = v :: visits in
    match Ltm_table.winner v with
    | None -> walk_visits tables ~now (i + 1) tag flow work visits
    | Some s -> (
        s.Ltm_table.clock.last_used <- now;
        let rule = s.Ltm_table.rule in
        let flow = Flow.update flow rule.Ltm_rule.commit in
        match rule.Ltm_rule.next with
        | Ltm_rule.Done terminal ->
            (Some { Gf_cache.Hit.terminal; out_flow = flow }, work, visits)
        | Ltm_rule.Next_tag tag -> walk_visits tables ~now (i + 1) tag flow work visits)
  end

(* Touch the matched entries of a walk: [last_used] always, [last_hit]
   only when the walk [completed].  A top-level loop, so a replayed hit
   allocates no closure. *)
let rec touch ~now ~completed = function
  | [] -> ()
  | (s : Ltm_table.stored) :: rest ->
      s.clock.last_used <- now;
      if completed then s.clock.last_hit <- now;
      touch ~now ~completed rest

(* The effects of a walk's matched entries.  Completion recency: only full
   traversals refresh [last_hit], so a dead chain prefix that every miss
   still touches goes cold in the eyes of the replacement policies (it
   keeps its [last_used] touches for idle expiry, preserving legacy expiry
   behaviour). *)
let walked t ~now result matched =
  if Option.is_some result then touch ~now ~completed:true matched;
  t.last_depth <- List.length matched

let lookup t ~now ~entry_tag flow =
  let result, work, matched = walk t.tables ~now 0 entry_tag flow 0 [] in
  walked t ~now result matched;
  (result, work)

(* The summed [Ltm_table.revisit] work of [visits], or -1 if any fails.
   A top-level loop, so a re-check allocates no closure. *)
let rec revisit_all work = function
  | [] -> work
  | v :: rest ->
      let w = Ltm_table.revisit v in
      if w < 0 then -1 else revisit_all (work + w) rest

(* The replay's state: the generation its work is known at, that work,
   and whether a re-check has failed. *)
type replay = { mutable gen : int; mutable work : int; mutable dead : bool }

(* [lookup] plus a replay of its per-packet effects.  While [generation]
   is unchanged no table's entry set has changed, so the replay reapplies
   the touches and the depth and returns the recorded work.  Once it has
   moved, the replay re-checks each visited table ([Ltm_table.revisit]):
   if every winner still holds, the walk's hit, matched entries and depth
   are what a fresh walk would give, and only the work is recounted.
   Touch-only mutations (recency refreshes, share counts) never matter. *)
let lookup_replay t ~now ~entry_tag flow =
  let result, work, visits = walk_visits t.tables ~now 0 entry_tag flow 0 [] in
  let matched = List.filter_map Ltm_table.winner visits in
  walked t ~now result matched;
  let completed = Option.is_some result and depth = t.last_depth in
  let r = { gen = t.generation; work; dead = false } in
  ( result,
    work,
    fun ~now ->
      if r.gen <> t.generation && not r.dead then begin
        let w = revisit_all 0 visits in
        if w < 0 then r.dead <- true
        else begin
          r.gen <- t.generation;
          r.work <- w
        end
      end;
      if r.dead then -1
      else begin
        touch ~now ~completed matched;
        t.last_depth <- depth;
        r.work
      end )

(* Placement planning: segments must land in strictly increasing table
   positions; segment i (0-based, m total) must sit at a position p with
   enough tables after it for the remaining segments (p <= K - (m - i)).
   Reuse of an identical entry is free; otherwise the first non-full
   feasible table is taken.  All-or-nothing.  On failure, [`Stuck (lo,
   hi)] reports the feasible position range of the first unplaceable
   segment — every table in it is full — so pressure eviction knows
   where a freed slot would help. *)
let plan_ex t rules =
  let k = Array.length t.tables in
  let m = List.length rules in
  if m > k then `Too_long
  else begin
    let placements = ref [] in
    let rec go i min_pos = function
      | [] -> `Ok (List.rev !placements)
      | rule :: rest -> (
          let max_pos = k - (m - i) in
          let rec find_reuse p =
            if p > max_pos then None
            else
              match Ltm_table.find_identical t.tables.(p) rule with
              | Some stored -> Some (p, `Reuse stored)
              | None -> find_reuse (p + 1)
          in
          let rec find_free p =
            if p > max_pos then None
            else if not (Ltm_table.is_full t.tables.(p)) then Some (p, `Fresh rule)
            else find_free (p + 1)
          in
          match
            match find_reuse min_pos with
            | Some r -> Some r
            | None -> find_free min_pos
          with
          | None -> `Stuck (min_pos, max_pos)
          | Some (p, action) ->
              placements := (p, action) :: !placements;
              go (i + 1) (p + 1) rest)
    in
    go 0 0 rules
  end

(* Tag-chain safety.  A victim at position [p] is safe when removing it
   cannot strand a dependent continuation: either its chain terminates
   here ([Done]), or no table after [p] consumes the tag it produces (the
   walk only moves forward, so consumers at or before [p] can never follow
   it).  (Evicting a {e successor} is always correctness-safe — the walk
   dead-ends and the packet falls back to the slowpath — but it would leave
   the predecessor's continuation unreachable garbage, so we never create
   that shape.)  Each table answers "do you consume this tag" with one
   hash probe, so a check is O(k) and scans no entries. *)
let rec consumed_after tables p tag =
  p + 1 < Array.length tables
  && (Ltm_table.consumes tables.(p + 1) tag || consumed_after tables (p + 1) tag)

(* The verdict depends only on the consumed-tag sets of the tables after
   [p].  Their change counters only grow, so their sum — [stamp] — is
   unchanged exactly while none of those sets changed, and an entry's
   cached verdict at the same stamp still holds.  Under churn the sets
   rarely change while the cold end of the recency order is full of
   unsafe chain prefixes that every pass meets again. *)
let rec later_changes tables p =
  if p + 1 >= Array.length tables then 0
  else Ltm_table.consumed_changes tables.(p + 1) + later_changes tables (p + 1)

let safe tables ~stamp p (s : Ltm_table.stored) =
  if s.Ltm_table.safe_stamp <> stamp then begin
    s.Ltm_table.safe <-
      (match s.Ltm_table.rule.Ltm_rule.next with
      | Ltm_rule.Done _ -> true
      | Ltm_rule.Next_tag tag -> not (consumed_after tables p tag));
    s.Ltm_table.safe_stamp <- stamp
  end;
  s.Ltm_table.safe

(* Victim rank, coldest first: (priority when [by_priority],) completion
   recency, then position and key — a total order, so the coldest safe
   entry is the same whatever order the entries are visited in.  Ranking by
   [last_hit] rather than raw touch recency makes dead chain prefixes,
   touched by every miss but never completed, look cold.  Priority encodes
   sub-traversal length: [Priority_aware] sheds the shortest first. *)
let colder ~by_priority p (s : Ltm_table.stored) p' (s' : Ltm_table.stored) =
  let pr = s.Ltm_table.rule.Ltm_rule.priority
  and pr' = s'.Ltm_table.rule.Ltm_rule.priority in
  if by_priority && pr <> pr' then pr < pr'
  else
    let h = s.Ltm_table.clock.last_hit and h' = s'.Ltm_table.clock.last_hit in
    h < h' || (h = h' && (p < p' || (p = p' && s.Ltm_table.key < s'.Ltm_table.key)))

(* The pressure victim among the safe entries of the full tables at
   positions [lo..hi].  [Lru] / [Priority_aware] take the coldest in one
   pass over each table's dense entry array, testing safety only for
   entries colder than the running best.  [Random] draws uniformly from
   the safe entries listed in table order, each table's entries in reverse
   iteration order: that list order is what the seeded draw indexes, so it
   stays as it always was. *)
let pick_victim t ~lo ~hi =
  match t.config.Config.policy with
  | Evict.Reject -> None
  | Evict.Random -> (
      let candidates = ref [] in
      for p = lo to hi do
        if Ltm_table.is_full t.tables.(p) then begin
          let stamp = later_changes t.tables p in
          Ltm_table.iter t.tables.(p) (fun s ->
              if safe t.tables ~stamp p s then candidates := (p, s) :: !candidates)
        end
      done;
      match !candidates with
      | [] -> None
      | l -> Some (List.nth l (Gf_util.Rng.int t.rng (List.length l))))
  | (Evict.Lru | Evict.Priority_aware) as policy ->
      let by_priority = policy = Evict.Priority_aware in
      let best_p = ref (-1) and best = ref None in
      for p = lo to hi do
        let table = t.tables.(p) in
        if Ltm_table.is_full table then begin
          let stamp = later_changes t.tables p in
          for i = 0 to Ltm_table.occupancy table - 1 do
            let s = Ltm_table.entry table i in
            match !best with
            | Some b when not (colder ~by_priority p s !best_p b) -> ()
            | _ ->
                if safe t.tables ~stamp p s then begin
                  best_p := p;
                  best := Some s
                end
          done
        end
      done;
      Option.map (fun s -> (!best_p, s)) !best

let install t ~now rules =
  let k = Array.length t.tables in
  let pressure = ref 0 in
  let rec attempt budget =
    match plan_ex t rules with
    | `Ok placements -> Some placements
    | `Too_long -> None
    | `Stuck (lo, hi) -> (
        if budget = 0 then None
        else
          match pick_victim t ~lo ~hi with
          | Some (p, s) ->
              Ltm_table.remove t.tables.(p) s;
              incr pressure;
              attempt (budget - 1)
          | None -> None)
  in
  match attempt (2 * k) with
  | None ->
      (* A failed plan may still have evicted victims while replanning. *)
      if !pressure > 0 then t.generation <- t.generation + 1;
      Install.Rejected { pressure_evicted = !pressure }
  | Some placements ->
      let fresh = ref 0 and shared = ref 0 in
      List.iter
        (fun (p, action) ->
          match action with
          | `Reuse stored ->
              stored.Ltm_table.shares <- stored.Ltm_table.shares + 1;
              stored.Ltm_table.clock.last_used <- now;
              stored.Ltm_table.clock.last_hit <- now;
              incr shared
          | `Fresh rule ->
              ignore (Ltm_table.insert t.tables.(p) ~now rule);
              incr fresh)
        placements;
      (* Reuse-only installs touch recency/shares but change no entry set:
         replays stay valid. *)
      if !fresh > 0 || !pressure > 0 then t.generation <- t.generation + 1;
      Install.Installed { fresh = !fresh; shared = !shared; pressure_evicted = !pressure }

let expire t ~now ~max_idle =
  let total = ref 0 in
  Array.iter
    (fun table ->
      let victims =
        Ltm_table.fold table ~init:[] ~f:(fun acc stored ->
            if now -. stored.Ltm_table.clock.last_used > max_idle then stored :: acc else acc)
      in
      List.iter (Ltm_table.remove table) victims;
      total := !total + List.length victims)
    t.tables;
  if !total > 0 then t.generation <- t.generation + 1;
  !total

(* Re-derive the rule a stored entry should be and compare signatures. *)
let revalidate_stored pipeline (stored : Ltm_table.stored) =
  let rule = stored.Ltm_table.rule in
  let origin = rule.Ltm_rule.origin in
  let prefix =
    Gf_pipeline.Executor.trace ~start:rule.Ltm_rule.tag_in
      ~max_steps:origin.Ltm_rule.length pipeline origin.Ltm_rule.parent_flow
  in
  let steps = prefix.Gf_pipeline.Executor.prefix_steps in
  let executed = Array.length steps in
  let consistent =
    executed = origin.Ltm_rule.length
    &&
    let next_ok =
      match (rule.Ltm_rule.next, prefix.Gf_pipeline.Executor.status) with
      | Ltm_rule.Done terminal, `Terminal terminal' ->
          Action.terminal_equal terminal terminal'
      | Ltm_rule.Next_tag tag, `More tag' -> tag = tag'
      | Ltm_rule.Done _, (`More _ | `Stuck _)
      | Ltm_rule.Next_tag _, (`Terminal _ | `Stuck _) ->
          false
    in
    next_ok
    &&
    let last = executed - 1 in
    let wildcard = Gf_pipeline.Traversal.wildcard_of_steps steps ~first:0 ~last in
    let fmatch = Gf_flow.Fmatch.v ~pattern:origin.Ltm_rule.parent_flow ~mask:wildcard in
    let commit = Gf_pipeline.Traversal.commit_of_steps steps ~first:0 ~last in
    Gf_flow.Fmatch.equal fmatch rule.Ltm_rule.fmatch && commit = rule.Ltm_rule.commit
  in
  (consistent, executed)

let revalidate t pipeline =
  let evicted = ref 0 and work = ref 0 in
  Array.iter
    (fun table ->
      let victims =
        Ltm_table.fold table ~init:[] ~f:(fun acc stored ->
            let consistent, executed = revalidate_stored pipeline stored in
            work := !work + executed;
            if consistent then acc else stored :: acc)
      in
      List.iter (Ltm_table.remove table) victims;
      evicted := !evicted + List.length victims)
    t.tables;
  if !evicted > 0 then t.generation <- t.generation + 1;
  (!evicted, !work)

let sharing_histogram t =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun table ->
      Ltm_table.iter table (fun stored ->
          let s = stored.Ltm_table.shares in
          Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))))
    t.tables;
  Hashtbl.fold (fun shares n acc -> (shares, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mean_sharing t =
  let total = ref 0 and n = ref 0 in
  Array.iter
    (fun table ->
      Ltm_table.iter table (fun stored ->
          total := !total + stored.Ltm_table.shares;
          incr n))
    t.tables;
  if !n = 0 then nan else float_of_int !total /. float_of_int !n

let iter_rules t f =
  Array.iteri (fun i table -> Ltm_table.iter table (fun stored -> f ~table:i stored)) t.tables

(* One forward pass suffices: tags only flow to strictly later tables, and
   a tag once produced (or an entry tag) stays available for every later
   table because non-matching tables pass the packet through unchanged. *)
let stranded t ~entry_tags =
  let k = Array.length t.tables in
  let available = Hashtbl.create 16 in
  List.iter (fun tag -> Hashtbl.replace available tag ()) entry_tags;
  let count = ref 0 in
  for p = 0 to k - 1 do
    let produced = ref [] in
    Ltm_table.iter t.tables.(p) (fun s ->
        if Hashtbl.mem available s.Ltm_table.rule.Ltm_rule.tag_in then (
          match s.Ltm_table.rule.Ltm_rule.next with
          | Ltm_rule.Done _ -> ()
          | Ltm_rule.Next_tag tag -> produced := tag :: !produced)
        else incr count);
    List.iter (fun tag -> Hashtbl.replace available tag ()) !produced
  done;
  !count
