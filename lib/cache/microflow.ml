module Flow = Gf_flow.Flow

type entry = { hit : Hit.t; mutable last_used : float }

type t = {
  mutable capacity : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  table : entry Flow.Tbl.t; (* monomorphic hash/equal: no polymorphic compare per probe *)
}

let create ?(policy = Evict.Lru) ?(rng_seed = 0xE3C) ~capacity () =
  if capacity < 1 then invalid_arg "Microflow.create: capacity must be >= 1";
  {
    capacity;
    policy;
    rng = Gf_util.Rng.create rng_seed;
    table = Flow.Tbl.create capacity;
  }

let capacity t = t.capacity
let policy t = t.policy
let set_policy t policy = t.policy <- policy

let set_capacity t capacity =
  if capacity < 1 then
    invalid_arg "Microflow.set_capacity: capacity must be >= 1";
  t.capacity <- capacity

let occupancy t = Flow.Tbl.length t.table

let lookup t ~now flow =
  match Flow.Tbl.find_opt t.table flow with
  | Some entry ->
      entry.last_used <- now;
      Some entry.hit
  | None -> None

(* Ties on [last_used] break towards the smaller flow, not the table's
   iteration order, so the victim does not depend on [Flow.hash]. *)
let evict_lru t =
  let victim = ref None in
  Flow.Tbl.iter
    (fun flow entry ->
      match !victim with
      | Some (f, e)
        when e.last_used < entry.last_used
             || (e.last_used = entry.last_used && Flow.compare f flow < 0) ->
          ()
      | _ -> victim := Some (flow, entry))
    t.table;
  match !victim with
  | Some (flow, _) ->
      Flow.Tbl.remove t.table flow;
      true
  | None -> false

let evict_random t =
  let n = Flow.Tbl.length t.table in
  if n = 0 then false
  else begin
    let target = Gf_util.Rng.int t.rng n in
    let i = ref 0 and victim = ref None in
    Flow.Tbl.iter
      (fun flow _ ->
        if !i = target then victim := Some flow;
        incr i)
      t.table;
    match !victim with
    | Some flow ->
        Flow.Tbl.remove t.table flow;
        true
    | None -> false
  end

(* Exact-match entries carry no priority, so [Priority_aware] degenerates to
   recency — the only signal an EMC entry has. *)
let evict_one t =
  match t.policy with
  | Evict.Reject -> false
  | Evict.Lru | Evict.Priority_aware -> evict_lru t
  | Evict.Random -> evict_random t

let install t ~now flow hit =
  let pressure_evicted =
    if Flow.Tbl.mem t.table flow || Flow.Tbl.length t.table < t.capacity then 0
    else if evict_one t then 1
    else -1 (* full and the policy refused *)
  in
  if pressure_evicted < 0 then Install.Rejected { pressure_evicted = 0 }
  else begin
    Flow.Tbl.replace t.table flow { hit; last_used = now };
    Install.Installed { fresh = 1; shared = 0; pressure_evicted }
  end

let expire t ~now ~max_idle =
  let stale =
    Flow.Tbl.fold
      (fun flow entry acc -> if now -. entry.last_used > max_idle then flow :: acc else acc)
      t.table []
  in
  List.iter (Flow.Tbl.remove t.table) stale;
  List.length stale

let invalidate_all t =
  let n = Flow.Tbl.length t.table in
  Flow.Tbl.reset t.table;
  n
