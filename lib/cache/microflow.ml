module Flow = Gf_flow.Flow

type entry = { hit : Hit.t; mutable last_used : float }

type t = {
  mutable capacity : int;
  mutable policy : Evict.policy;
  rng : Gf_util.Rng.t;
  table : entry Flow.Tbl.t; (* monomorphic hash/equal: no polymorphic compare per probe *)
  stats : Cache_stats.t;
}

let create ?(policy = Evict.Lru) ?(rng_seed = 0xE3C) ~capacity () =
  if capacity < 1 then invalid_arg "Microflow.create: capacity must be >= 1";
  {
    capacity;
    policy;
    rng = Gf_util.Rng.create rng_seed;
    table = Flow.Tbl.create capacity;
    stats = Cache_stats.create ();
  }

let capacity t = t.capacity
let policy t = t.policy
let set_policy t policy = t.policy <- policy

let set_capacity t capacity =
  if capacity < 1 then
    invalid_arg "Microflow.set_capacity: capacity must be >= 1";
  t.capacity <- capacity

let occupancy t = Flow.Tbl.length t.table
let stats t = t.stats

let lookup t ~now flow =
  match Flow.Tbl.find_opt t.table flow with
  | Some entry ->
      entry.last_used <- now;
      Cache_stats.record_lookup t.stats ~hit:true;
      Some entry.hit
  | None ->
      Cache_stats.record_lookup t.stats ~hit:false;
      None

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
      t.stats.Cache_stats.pressure_evictions <-
        t.stats.Cache_stats.pressure_evictions + 1;
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
        t.stats.Cache_stats.pressure_evictions <-
          t.stats.Cache_stats.pressure_evictions + 1;
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
  match Flow.Tbl.find_opt t.table flow with
  | Some _ ->
      Flow.Tbl.replace t.table flow { hit; last_used = now };
      t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + 1;
      0
  | None ->
      let evicted =
        if Flow.Tbl.length t.table >= t.capacity then
          if evict_one t then 1 else -1 (* -1: full and policy refused *)
        else 0
      in
      if evicted < 0 then begin
        t.stats.Cache_stats.rejected <- t.stats.Cache_stats.rejected + 1;
        0
      end
      else begin
        Flow.Tbl.replace t.table flow { hit; last_used = now };
        t.stats.Cache_stats.installs <- t.stats.Cache_stats.installs + 1;
        evicted
      end

let expire t ~now ~max_idle =
  let stale =
    Flow.Tbl.fold
      (fun flow entry acc -> if now -. entry.last_used > max_idle then flow :: acc else acc)
      t.table []
  in
  List.iter (Flow.Tbl.remove t.table) stale;
  let n = List.length stale in
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + n;
  n

let invalidate_all t =
  let n = Flow.Tbl.length t.table in
  Flow.Tbl.reset t.table;
  t.stats.Cache_stats.evictions <- t.stats.Cache_stats.evictions + n;
  n
