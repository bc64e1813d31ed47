module Flow = Gf_flow.Flow

(* The clock is an all-float record, stored flat: refreshing it on a hit
   boxes no float and runs no write barrier. *)
type clock = { mutable last_used : float }
type entry = { hit : Hit.t; clock : clock }

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
      entry.clock.last_used <- now;
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
        when e.clock.last_used < entry.clock.last_used
             || (e.clock.last_used = entry.clock.last_used && Flow.compare f flow < 0) ->
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

(* A new flow at or over the bound evicts down to one below it (several
   victims only after [set_capacity] shrank the bound below occupancy);
   under [Reject] nothing is evicted and the install is refused.  A
   present flow is replaced in place. *)
let install t ~now flow hit =
  let pressure = ref 0 in
  let present = Flow.Tbl.mem t.table flow in
  if not present then
    while Flow.Tbl.length t.table >= t.capacity && evict_one t do
      incr pressure
    done;
  if present || Flow.Tbl.length t.table < t.capacity then begin
    Flow.Tbl.replace t.table flow { hit; clock = { last_used = now } };
    Install.Installed { fresh = 1; shared = 0; pressure_evicted = !pressure }
  end
  else Install.Rejected { pressure_evicted = 0 }

let expire t ~now ~max_idle =
  let stale =
    Flow.Tbl.fold
      (fun flow entry acc -> if now -. entry.clock.last_used > max_idle then flow :: acc else acc)
      t.table []
  in
  List.iter (Flow.Tbl.remove t.table) stale;
  List.length stale

let invalidate_all t =
  let n = Flow.Tbl.length t.table in
  Flow.Tbl.reset t.table;
  n
