module Microflow = Gf_cache.Microflow
module Cuckoo = Gf_cache.Cuckoo
module Megaflow = Gf_cache.Megaflow
module Evict = Gf_cache.Evict
module Install = Gf_cache.Install
module Gigaflow = Gf_core.Gigaflow
module Ltm_cache = Gf_core.Ltm_cache
module Config = Gf_core.Config
module Latency = Gf_nic.Latency
module Pipeline = Gf_pipeline.Pipeline

type tier = Hardware | Software

let tier_name = function Hardware -> "hardware" | Software -> "software"

type install_policy = Install_on_miss | Promote_on_hit

type descriptor = {
  name : string;
  tier : tier;
  policy : install_policy;
  max_idle : float;
  hit_us : work:int -> float;
  cycles_per_work : int;
}

type install_report = {
  fresh : int;
  shared : int;
  rejected : int;
  pressure_evicted : int;
  partition_work : int;
  rulegen_work : int;
}

let no_install =
  {
    fresh = 0;
    shared = 0;
    rejected = 0;
    pressure_evicted = 0;
    partition_work = 0;
    rulegen_work = 0;
  }

type backend =
  | Emc of Microflow.t
  | Megaflow of Megaflow.t
  | Cuckoo of Cuckoo.t
  | Ltm of Gigaflow.t * Pipeline.t

(* The per-flow memo of a memoising level: the last lookup's hit and the
   backend's replay of that lookup. *)
type memo = { mutable hit : Gf_cache.Hit.t option; mutable replay : now:float -> int }

type t = {
  descriptor : descriptor;
  backend : backend;
  memo : memo Gf_util.Int_tbl.t; (* flow id -> memo; empty on exact-match levels *)
  mutable last : memo; (* the memo the latest [lookup_memo] ran or filled *)
}

let descriptor t = t.descriptor
let backend t = t.backend
let name t = t.descriptor.name
let tier t = t.descriptor.tier

let lookup t ~now flow =
  match t.backend with
  | Emc emc -> (Microflow.lookup emc ~now flow, 1)
  | Cuckoo ck -> (Cuckoo.lookup ck ~now flow, 1)
  | Megaflow mf -> Megaflow.lookup mf ~now flow
  | Ltm (gf, pipeline) -> Gigaflow.lookup gf ~now ~pipeline flow

let lookup_replay t ~now flow =
  match t.backend with
  | Megaflow mf -> Megaflow.lookup_replay mf ~now flow
  | Ltm (gf, pipeline) ->
      Ltm_cache.lookup_replay (Gigaflow.cache gf) ~now ~entry_tag:(Pipeline.entry pipeline)
        flow
  | Emc _ | Cuckoo _ -> invalid_arg "Cache_level.lookup_replay: exact-match level"

(* Exact-match lookups are already one bounded probe: nothing to
   amortise, so they keep no memo.  Elsewhere a known flow runs its stored
   replay; a stale one (-1) is refilled from a fresh lookup. *)
let lookup_memo t ~now ~flow_id flow =
  match t.backend with
  | Emc _ | Cuckoo _ -> lookup t ~now flow
  | Megaflow _ | Ltm _ -> (
      match Gf_util.Int_tbl.find_opt t.memo flow_id with
      | Some m ->
          t.last <- m;
          let work = m.replay ~now in
          if work >= 0 then (m.hit, work)
          else begin
            let hit, work, replay = lookup_replay t ~now flow in
            m.hit <- hit;
            m.replay <- replay;
            (hit, work)
          end
      | None ->
          let hit, work, replay = lookup_replay t ~now flow in
          let m = { hit; replay } in
          Gf_util.Int_tbl.replace t.memo flow_id m;
          t.last <- m;
          (hit, work))

let last_hit_replay t =
  match t.last with { hit = Some _; replay } -> Some replay | { hit = None; _ } -> None

(* One install outcome to the report's counts; the LTM's partition and
   rule-generation work is added by the caller. *)
let report_of_install = function
  | Install.Installed { fresh; shared; pressure_evicted } ->
      { no_install with fresh; shared; pressure_evicted }
  | Install.Rejected { pressure_evicted } -> { no_install with rejected = 1; pressure_evicted }

let install_from_traversal t ~now ~version traversal =
  match t.backend with
  | Emc _ -> no_install
  | Cuckoo ck ->
      (* Installs collapse the traversal to (input flow, committed output
         flow, terminal) — exactly the result that packet produced — so a
         mouse's second packet short-circuits in two bucket probes without
         ever earning a wildcard or hardware slot. *)
      let open Gf_pipeline in
      let input = traversal.Traversal.input in
      let commit =
        Traversal.segment_commit traversal ~first:0
          ~last:(Array.length traversal.Traversal.steps - 1)
      in
      let hit =
        {
          Gf_cache.Hit.terminal = traversal.Traversal.terminal;
          out_flow = Gf_flow.Flow.update input commit;
        }
      in
      report_of_install (Cuckoo.install ck ~now input hit)
  | Megaflow mf -> report_of_install (Megaflow.install mf ~now ~version traversal)
  | Ltm (gf, _) ->
      let o = Gigaflow.install_traversal gf ~now ~version traversal in
      {
        (report_of_install o.Gigaflow.install) with
        partition_work = o.Gigaflow.partition_work;
        rulegen_work = o.Gigaflow.rulegen_work;
      }

let promote t ~now flow hit =
  match t.backend with
  | Emc emc -> Microflow.install emc ~now flow hit
  | Cuckoo ck -> Cuckoo.install ck ~now flow hit
  | Megaflow _ | Ltm _ -> Install.Installed { fresh = 0; shared = 0; pressure_evicted = 0 }

let expire t ~now =
  let max_idle = t.descriptor.max_idle in
  match t.backend with
  | Emc emc -> Microflow.expire emc ~now ~max_idle
  | Cuckoo ck -> Cuckoo.expire ck ~now ~max_idle
  | Megaflow mf -> Megaflow.expire mf ~now ~max_idle
  | Ltm (gf, _) -> Gigaflow.expire gf ~now

let demote t ~is_hot =
  match t.backend with
  | Megaflow mf -> Megaflow.demote mf ~is_hot
  | Emc _ | Cuckoo _ | Ltm _ -> 0

(* Exact-match entries carry no dependency information: the only safe
   response to a pipeline change is a flush (OVS does the same). *)
let revalidate t pipeline =
  match t.backend with
  | Emc emc -> (Microflow.invalidate_all emc, 0)
  | Cuckoo ck -> (Cuckoo.invalidate_all ck, 0)
  | Megaflow mf -> Megaflow.revalidate mf pipeline
  | Ltm (gf, _) -> Gigaflow.revalidate gf pipeline

let occupancy t =
  match t.backend with
  | Emc emc -> Microflow.occupancy emc
  | Cuckoo ck -> Cuckoo.occupancy ck
  | Megaflow mf -> Megaflow.occupancy mf
  | Ltm (gf, _) -> Ltm_cache.occupancy (Gigaflow.cache gf)

let capacity t =
  match t.backend with
  | Emc emc -> Microflow.capacity emc
  | Cuckoo ck -> Cuckoo.capacity ck
  | Megaflow mf -> Megaflow.capacity mf
  | Ltm (gf, _) -> Config.total_capacity (Gigaflow.config gf)

let evict_policy t =
  match t.backend with
  | Emc emc -> Microflow.policy emc
  | Cuckoo ck -> Cuckoo.policy ck
  | Megaflow mf -> Megaflow.policy mf
  | Ltm (gf, _) -> (Gigaflow.config gf).Config.policy

let set_evict t p =
  match t.backend with
  | Emc emc -> Microflow.set_policy emc p
  | Cuckoo ck -> Cuckoo.set_policy ck p
  | Megaflow mf -> Megaflow.set_policy mf p
  | Ltm (gf, _) -> Gigaflow.set_policy gf p

(* LTM geometry (table count, per-table SRAM) is the hardware; only the
   replacement policy is an online knob. *)
let set_capacity t c =
  match t.backend with
  | Emc emc -> Microflow.set_capacity emc c
  | Cuckoo ck -> Cuckoo.set_capacity ck c
  | Megaflow mf -> Megaflow.set_capacity mf c
  | Ltm _ -> ()

let last_depth t =
  match t.backend with
  | Ltm (gf, _) -> Ltm_cache.last_depth (Gigaflow.cache gf)
  | Emc _ | Cuckoo _ | Megaflow _ -> 0

(* ------------------------------- specs ------------------------------- *)

type spec =
  | Emc of { capacity : int; max_idle : float option; evict : Evict.policy option }
  | Nic_megaflow of {
      capacity : int;
      max_idle : float option;
      evict : Evict.policy option;
    }
  | Sw_megaflow of {
      search : Gf_classifier.Searcher.algo;
      capacity : int;
      max_idle : float option;
      evict : Evict.policy option;
    }
  | Sw_cuckoo of { capacity : int; max_idle : float option; evict : Evict.policy option }
  | Gf_ltm of { gf : Config.t; max_idle : float option }

(* [Gf_ltm] carries its policy inside the Gigaflow config. *)
let spec_with_evict spec policy =
  match spec with
  | Emc e -> Emc { e with evict = Some policy }
  | Nic_megaflow e -> Nic_megaflow { e with evict = Some policy }
  | Sw_megaflow e -> Sw_megaflow { e with evict = Some policy }
  | Sw_cuckoo e -> Sw_cuckoo { e with evict = Some policy }
  | Gf_ltm e -> Gf_ltm { e with gf = { e.gf with Config.policy } }

let spec_evict = function
  | Emc { evict; _ } | Sw_cuckoo { evict; _ } -> Option.value evict ~default:Evict.Lru
  | Nic_megaflow { evict; _ } | Sw_megaflow { evict; _ } ->
      Option.value evict ~default:Evict.Reject
  | Gf_ltm { gf; _ } -> gf.Config.policy

let spec_name = function
  | Emc _ -> "emc"
  | Nic_megaflow _ -> "nic-mf"
  | Sw_megaflow _ -> "sw-mf"
  | Sw_cuckoo _ -> "sw-ck"
  | Gf_ltm _ -> "gf"

let spec_tier = function
  | Emc _ | Sw_megaflow _ | Sw_cuckoo _ -> Software
  | Nic_megaflow _ | Gf_ltm _ -> Hardware

let spec_capacity = function
  | Emc { capacity; _ }
  | Nic_megaflow { capacity; _ }
  | Sw_megaflow { capacity; _ }
  | Sw_cuckoo { capacity; _ } ->
      capacity
  | Gf_ltm { gf; _ } -> Config.total_capacity gf

let build ?name ~default_max_idle ~pipeline spec =
  let policy = spec_evict spec in
  let idle = Option.value ~default:default_max_idle in
  (* The host-DRAM levels outlive the NIC levels: entries are cheap and
     re-seeding the NIC from them avoids slowpath re-execution, so their
     default idle budget is 4x the hierarchy's. *)
  let host_idle = Option.value ~default:(4.0 *. default_max_idle) in
  let (backend : backend), max_idle, hit_us =
    match spec with
    | Emc { capacity; max_idle; _ } ->
        ( Emc (Microflow.create ~policy ~capacity ()),
          idle max_idle,
          fun ~work:_ -> Latency.emc_hit_us )
    | Nic_megaflow { capacity; max_idle; _ } ->
        ( Megaflow (Megaflow.create ~policy ~capacity ()),
          idle max_idle,
          fun ~work:_ -> Latency.hw_hit_us )
    | Sw_megaflow { search; capacity; max_idle; _ } ->
        ( Megaflow (Megaflow.create ~search ~policy ~capacity ()),
          host_idle max_idle,
          fun ~work -> Latency.sw_search_us ~algo:search ~work () )
    | Sw_cuckoo { capacity; max_idle; _ } ->
        ( Cuckoo (Cuckoo.create ~policy ~capacity ()),
          host_idle max_idle,
          fun ~work:_ -> Latency.cuckoo_hit_us )
    | Gf_ltm { gf; max_idle } ->
        let max_idle = idle max_idle in
        ( Ltm (Gigaflow.create { gf with Config.max_idle }, pipeline),
          max_idle,
          fun ~work:_ -> Latency.hw_hit_us )
  in
  let descriptor =
    {
      name = Option.value name ~default:(spec_name spec);
      tier = spec_tier spec;
      policy = (match spec with Emc _ -> Promote_on_hit | _ -> Install_on_miss);
      max_idle;
      hit_us;
      cycles_per_work = (match spec with Sw_megaflow _ -> Latency.probe_cycles | _ -> 0);
    }
  in
  {
    descriptor;
    backend;
    memo = Gf_util.Int_tbl.create 256;
    last = { hit = None; replay = (fun ~now:_ -> -1) };
  }
