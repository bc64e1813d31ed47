module Histogram = Gf_telemetry.Histogram

(* Why a level missed.  The datapath resolves the cause at the point it
   counts the miss ([record_miss]), so every miss maps to exactly one
   cause and the per-cause counts sum to [misses] by construction. *)
type cause =
  | Cold
  | Deferred_admission
  | Pressure_evicted
  | Expired
  | Revalidation
  | Tag_chain_stall

let all_causes =
  [ Cold; Deferred_admission; Pressure_evicted; Expired; Revalidation; Tag_chain_stall ]

let cause_index = function
  | Cold -> 0
  | Deferred_admission -> 1
  | Pressure_evicted -> 2
  | Expired -> 3
  | Revalidation -> 4
  | Tag_chain_stall -> 5

let cause_name = function
  | Cold -> "cold"
  | Deferred_admission -> "deferred_admission"
  | Pressure_evicted -> "pressure_evicted"
  | Expired -> "expired"
  | Revalidation -> "revalidation"
  | Tag_chain_stall -> "tag_chain_stall"

(* Per-level counters, keyed by the cache level's name.  Levels are
   registered by the datapath at creation time (in walk order) and merged
   across shards by name.  The latency histogram is always on: recording is
   allocation-free (bucket increments), and keeping it in Metrics — rather
   than behind the optional telemetry sink — is what lets [pp_levels] and
   the time-series sampler report per-level tail quantiles whose counts
   match these counters exactly. *)
type level = {
  level_name : string;
  mutable hits : int;
  mutable misses : int;
  miss_causes : int array;  (* [cause_index] -> misses; sums to [misses] *)
  mutable installs : int;
  mutable shared : int;
  mutable rejected : int;
  mutable evictions : int;
  mutable pressure_evictions : int;
  mutable deferred : int;
      (* hardware installs withheld by the admission policy (flow not yet
         hot enough for a slot) *)
  mutable demotions : int;
      (* entries evicted by the admission re-partition sweep (flow went
         cold); also included in [evictions] *)
  mutable promotions : int;  (* promote-on-hit learns (EMC) at this level *)
  mutable revalidations : int;
      (* entries evicted by a revalidation sweep; also included in
         [evictions] *)
  mutable work : int;
  mutable occupancy_peak : int;
  mutable occupancy_final : int;
  latency_hist : Histogram.t;  (* per-hit latency at this level *)
}

let level_create name =
  {
    level_name = name;
    hits = 0;
    misses = 0;
    miss_causes = Array.make (List.length all_causes) 0;
    installs = 0;
    shared = 0;
    rejected = 0;
    evictions = 0;
    pressure_evictions = 0;
    deferred = 0;
    demotions = 0;
    promotions = 0;
    revalidations = 0;
    work = 0;
    occupancy_peak = 0;
    occupancy_final = 0;
    latency_hist = Gf_nic.Latency.latency_histogram ();
  }

type t = {
  mutable packets : int;
  mutable hw_hits : int;
  mutable sw_hits : int;
  mutable slowpaths : int;
  mutable drops : int;
  mutable hw_installs : int;
  mutable hw_shared : int;
  mutable hw_rejected : int;
  mutable hw_evictions : int;
  mutable hw_pressure_evictions : int;
  mutable hw_deferred : int;
  mutable hw_demotions : int;
  latency : Gf_util.Stats.Acc.t;
  mutable cycles_userspace : int;
  mutable cycles_partition : int;
  mutable cycles_rulegen : int;
  mutable cycles_sw_search : int;
  mutable hw_entries_peak : int;
  mutable hw_entries_final : int;
  latency_hist : Histogram.t;  (* end-to-end per-packet latency *)
  mutable levels : level list;  (* walk order *)
}

let create () =
  {
    packets = 0;
    hw_hits = 0;
    sw_hits = 0;
    slowpaths = 0;
    drops = 0;
    hw_installs = 0;
    hw_shared = 0;
    hw_rejected = 0;
    hw_evictions = 0;
    hw_pressure_evictions = 0;
    hw_deferred = 0;
    hw_demotions = 0;
    latency = Gf_util.Stats.Acc.create ();
    cycles_userspace = 0;
    cycles_partition = 0;
    cycles_rulegen = 0;
    cycles_sw_search = 0;
    hw_entries_peak = 0;
    hw_entries_final = 0;
    latency_hist = Gf_nic.Latency.latency_histogram ();
    levels = [];
  }

let levels t = t.levels

let find_level t name =
  List.find_opt (fun l -> String.equal l.level_name name) t.levels

let level t name =
  match find_level t name with
  | Some l -> l
  | None ->
      let l = level_create name in
      t.levels <- t.levels @ [ l ];
      l

let record_miss (l : level) cause =
  l.misses <- l.misses + 1;
  let i = cause_index cause in
  l.miss_causes.(i) <- l.miss_causes.(i) + 1

let cause_misses (l : level) cause = l.miss_causes.(cause_index cause)

(* Non-zero (level, cause, count) rows, walk order then cause order. *)
let miss_causes t =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun c ->
          let v = cause_misses l c in
          if v > 0 then Some (l.level_name, cause_name c, v) else None)
        all_causes)
    t.levels

let level_hit_rate (l : level) =
  let consulted = l.hits + l.misses in
  if consulted = 0 then 0.0 else float_of_int l.hits /. float_of_int consulted

let merge_level ~into:(into : level) (src : level) =
  Histogram.merge ~into:into.latency_hist src.latency_hist;
  into.hits <- into.hits + src.hits;
  into.misses <- into.misses + src.misses;
  Array.iteri (fun i v -> into.miss_causes.(i) <- into.miss_causes.(i) + v) src.miss_causes;
  into.installs <- into.installs + src.installs;
  into.shared <- into.shared + src.shared;
  into.rejected <- into.rejected + src.rejected;
  into.evictions <- into.evictions + src.evictions;
  into.pressure_evictions <- into.pressure_evictions + src.pressure_evictions;
  into.deferred <- into.deferred + src.deferred;
  into.demotions <- into.demotions + src.demotions;
  into.promotions <- into.promotions + src.promotions;
  into.revalidations <- into.revalidations + src.revalidations;
  into.work <- into.work + src.work;
  into.occupancy_peak <- into.occupancy_peak + src.occupancy_peak;
  into.occupancy_final <- into.occupancy_final + src.occupancy_final

(* Fold [src] into [into].  Counters are additive.  Occupancy figures are
   summed too: per-domain datapaths own disjoint caches, so the aggregate
   footprint at any instant is the sum (peaks are summed pessimistically —
   per-shard peaks need not coincide in time).  Per-level counters merge by
   level name, appending levels [into] has not seen. *)
let merge ~into src =
  into.packets <- into.packets + src.packets;
  into.hw_hits <- into.hw_hits + src.hw_hits;
  into.sw_hits <- into.sw_hits + src.sw_hits;
  into.slowpaths <- into.slowpaths + src.slowpaths;
  into.drops <- into.drops + src.drops;
  into.hw_installs <- into.hw_installs + src.hw_installs;
  into.hw_shared <- into.hw_shared + src.hw_shared;
  into.hw_rejected <- into.hw_rejected + src.hw_rejected;
  into.hw_evictions <- into.hw_evictions + src.hw_evictions;
  into.hw_pressure_evictions <- into.hw_pressure_evictions + src.hw_pressure_evictions;
  into.hw_deferred <- into.hw_deferred + src.hw_deferred;
  into.hw_demotions <- into.hw_demotions + src.hw_demotions;
  Gf_util.Stats.Acc.merge ~into:into.latency src.latency;
  Histogram.merge ~into:into.latency_hist src.latency_hist;
  into.cycles_userspace <- into.cycles_userspace + src.cycles_userspace;
  into.cycles_partition <- into.cycles_partition + src.cycles_partition;
  into.cycles_rulegen <- into.cycles_rulegen + src.cycles_rulegen;
  into.cycles_sw_search <- into.cycles_sw_search + src.cycles_sw_search;
  into.hw_entries_peak <- into.hw_entries_peak + src.hw_entries_peak;
  into.hw_entries_final <- into.hw_entries_final + src.hw_entries_final;
  List.iter (fun sl -> merge_level ~into:(level into sl.level_name) sl) src.levels

let aggregate ms =
  let t = create () in
  List.iter (fun m -> merge ~into:t m) ms;
  t

(* Ratio accessors return 0.0 (not nan) on zero-packet / zero-work runs:
   downstream JSON reports and the telemetry samplers want finite numbers,
   and a run that did nothing has a 0% hit rate and zero cost by any
   sensible reading.  [Stats.Acc.mean] itself still reports nan on empty —
   only these derived views are guarded. *)
let hw_hit_rate t =
  if t.packets = 0 then 0.0 else float_of_int t.hw_hits /. float_of_int t.packets

let hw_miss_count t = t.sw_hits + t.slowpaths

let total_cycles t =
  t.cycles_userspace + t.cycles_partition + t.cycles_rulegen + t.cycles_sw_search

let mean_latency_us t =
  if Gf_util.Stats.Acc.count t.latency = 0 then 0.0
  else Gf_util.Stats.Acc.mean t.latency

let overhead_ratio t =
  if t.cycles_userspace = 0 then 0.0
  else
    float_of_int (t.cycles_partition + t.cycles_rulegen)
    /. float_of_int t.cycles_userspace

let pp fmt t =
  Format.fprintf fmt
    "packets=%d hw_hits=%d (%.2f%%) sw_hits=%d slowpaths=%d entries=%d (peak %d) \
     installs=%d shared=%d rejected=%d evictions=%d pressure=%d avg_lat=%.2fus"
    t.packets t.hw_hits (100.0 *. hw_hit_rate t) t.sw_hits t.slowpaths
    t.hw_entries_final t.hw_entries_peak t.hw_installs t.hw_shared t.hw_rejected
    t.hw_evictions t.hw_pressure_evictions (mean_latency_us t)

(* One row per level, columns aligned across rows so multi-level output
   reads as a table.  p50/p99 come from the always-on per-level latency
   histograms (0.00 when the level never hit). *)
let pp_levels fmt t =
  let name_w =
    List.fold_left (fun w l -> max w (String.length l.level_name)) 5 t.levels
  in
  List.iter
    (fun (l : level) ->
      let q p = if Histogram.count l.latency_hist = 0 then 0.0 else p l.latency_hist in
      Format.fprintf fmt
        "level %-*s hits=%9d misses=%9d hit=%6.2f%% installs=%8d shared=%7d \
         rejected=%6d evictions=%7d pressure=%6d defer=%6d demote=%6d \
         work=%10d occ=%7d peak=%7d p50=%8.2fus p99=%8.2fus@."
        name_w l.level_name l.hits l.misses
        (100.0 *. level_hit_rate l)
        l.installs l.shared l.rejected l.evictions l.pressure_evictions l.deferred
        l.demotions l.work l.occupancy_final l.occupancy_peak (q Histogram.p50)
        (q Histogram.p99))
    t.levels

(* Export every counter into [registry] under stable Prometheus-style
   names; per-level series carry a [level] label.  Counters are *set* (the
   registry refs are overwritten, not incremented), so exporting twice is
   idempotent; merging registries from different shards still sums because
   each shard exports its own disjoint metrics object. *)
let to_registry t registry =
  let module R = Gf_telemetry.Registry in
  let set ?labels name help v =
    let r = R.counter registry ?labels ~help name in
    r := v
  in
  let setg ?labels name help v =
    let r = R.gauge registry ?labels ~help name in
    r := v
  in
  set "gigaflow_packets_total" "Packets replayed" t.packets;
  set "gigaflow_hw_hits_total" "Packets served by the SmartNIC cache" t.hw_hits;
  set "gigaflow_sw_hits_total" "Packets served by a software cache level" t.sw_hits;
  set "gigaflow_slowpaths_total" "Packets taking the full slowpath" t.slowpaths;
  set "gigaflow_drops_total" "Packets dropped (pipeline error)" t.drops;
  set "gigaflow_hw_installs_total" "Hardware rule installs" t.hw_installs;
  set "gigaflow_hw_shared_total" "Hardware installs satisfied by sharing" t.hw_shared;
  set "gigaflow_hw_rejected_total" "Hardware installs rejected (tables full)"
    t.hw_rejected;
  set "gigaflow_hw_evictions_total" "Hardware entries evicted" t.hw_evictions;
  set "gigaflow_hw_pressure_evictions_total"
    "Hardware entries evicted under capacity pressure" t.hw_pressure_evictions;
  set "gigaflow_hw_deferred_total"
    "Hardware installs withheld by the admission policy" t.hw_deferred;
  set "gigaflow_hw_demotions_total"
    "Hardware entries demoted by the admission re-partition sweep" t.hw_demotions;
  set "gigaflow_cycles_total" "Slowpath CPU cycles by component"
    ~labels:[ ("component", "userspace") ]
    t.cycles_userspace;
  set "gigaflow_cycles_total" "" ~labels:[ ("component", "partition") ]
    t.cycles_partition;
  set "gigaflow_cycles_total" "" ~labels:[ ("component", "rulegen") ] t.cycles_rulegen;
  set "gigaflow_cycles_total" ""
    ~labels:[ ("component", "sw_search") ]
    t.cycles_sw_search;
  setg "gigaflow_hw_entries" "Hardware cache occupancy (end of run)"
    (float_of_int t.hw_entries_final);
  setg "gigaflow_hw_entries_peak" "Peak hardware cache occupancy"
    (float_of_int t.hw_entries_peak);
  R.set_histogram registry ~help:"End-to-end per-packet latency (us)"
    "gigaflow_packet_latency_us" t.latency_hist;
  List.iter
    (fun l ->
      let labels = [ ("level", l.level_name) ] in
      set "gigaflow_level_hits_total" "Cache hits by level" ~labels l.hits;
      set "gigaflow_level_misses_total" "Cache misses by level" ~labels l.misses;
      set "gigaflow_level_installs_total" "Installs by level" ~labels l.installs;
      set "gigaflow_level_shared_total" "Shared installs by level" ~labels l.shared;
      set "gigaflow_level_rejected_total" "Rejected installs by level" ~labels
        l.rejected;
      set "gigaflow_level_evictions_total" "Evictions by level" ~labels l.evictions;
      set "gigaflow_level_pressure_evictions_total"
        "Capacity-pressure evictions by level" ~labels l.pressure_evictions;
      set "gigaflow_level_deferred_total"
        "Admission-deferred installs by level" ~labels l.deferred;
      set "gigaflow_level_demotions_total"
        "Admission-sweep demotions by level" ~labels l.demotions;
      set "gigaflow_level_work_total" "Classifier work units by level" ~labels l.work;
      setg "gigaflow_level_occupancy" "Level occupancy (end of run)" ~labels
        (float_of_int l.occupancy_final);
      setg "gigaflow_level_occupancy_peak" "Peak level occupancy" ~labels
        (float_of_int l.occupancy_peak);
      R.set_histogram registry ~labels ~help:"Per-hit latency by level (us)"
        "gigaflow_level_hit_latency_us" l.latency_hist)
    t.levels;
  (* The same per-level events again, one series per (kind, level) in the
     flight recorder's kind vocabulary.  Idle-expiry evictions are the
     evictions neither the admission sweep nor a revalidation made. *)
  List.iter
    (fun l ->
      let kind k v =
        set "gigaflow_events_total" "Datapath events by kind and cache level"
          ~labels:[ ("kind", k); ("level", l.level_name) ]
          v
      in
      kind "hit" l.hits;
      kind "miss" l.misses;
      kind "install" l.installs;
      kind "evict" (l.evictions - l.demotions - l.revalidations);
      kind "promote" l.promotions;
      kind "revalidate" l.revalidations;
      kind "reject" l.rejected;
      kind "pressure_evict" l.pressure_evictions;
      kind "defer" l.deferred;
      kind "demote" l.demotions)
    t.levels;
  List.iter
    (fun (level, cause, v) ->
      set "gigaflow_profile_miss_cause_total" "Datapath misses by resolved cause"
        ~labels:[ ("level", level); ("cause", cause) ]
        v)
    (miss_causes t)
