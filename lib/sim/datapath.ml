module Action = Gf_pipeline.Action
module Pipeline = Gf_pipeline.Pipeline
module Executor = Gf_pipeline.Executor
module Traversal = Gf_pipeline.Traversal
module Latency = Gf_nic.Latency
module Telemetry = Gf_telemetry.Telemetry
module Recorder = Gf_telemetry.Recorder
module Histogram = Gf_telemetry.Histogram
module Series = Gf_telemetry.Series
module Tracer = Gf_telemetry.Tracer
module Attribution = Gf_telemetry.Attribution
module Heavy_hitter = Gf_offload.Heavy_hitter
module Flow = Gf_flow.Flow

(* ----------------------------- hierarchies ----------------------------- *)

type config = {
  name : string;
  levels : Cache_level.spec list;
  max_idle : float;
  expire_every : float;
  admission : Heavy_hitter.policy;
      (* [Admit_all] (the default everywhere but the [*_hh] presets) keeps
         the historical behaviour: every slowpath installs into every
         level.  [Heavy_hitter _] gates hardware-tier installs on the
         space-saving sketch and re-partitions on the expiry sweep. *)
}

let default_mf_capacity = 32_768

(* The host levels every preset shares: OVS's EMC at its default 8,192
   entries, and the software wildcard cache (TSS search) or the cuckoo
   exact-match tail at 1M entries. *)
let emc = Cache_level.Emc { capacity = 8192; max_idle = None; evict = None }

let sw_mf =
  Cache_level.Sw_megaflow
    { search = `Tss; capacity = 1_000_000; max_idle = None; evict = None }

let sw_ck = Cache_level.Sw_cuckoo { capacity = 1_000_000; max_idle = None; evict = None }

let nic_mf capacity = Cache_level.Nic_megaflow { capacity; max_idle = None; evict = None }
let gf_ltm gf = Cache_level.Gf_ltm { gf; max_idle = None }

(* Preset hierarchies.  Names list the levels OVS-style (host hierarchy
   around the NIC cache); the [levels] list is the walk order — the NIC
   cache always comes first because packets hit it before ever reaching
   host software.  Every other knob is a combinator below. *)

(* A 10 s idle budget, swept every second. *)
let hierarchy ?(admission = Heavy_hitter.Admit_all) name levels =
  { name; levels; max_idle = 10.0; expire_every = 1.0; admission }

let emc_mf_sw ?(mf_capacity = default_mf_capacity) () =
  hierarchy "emc_mf_sw" [ nic_mf mf_capacity; emc; sw_mf ]

let emc_gf_sw ?(gf = Gf_core.Config.default) () =
  hierarchy "emc_gf_sw" [ gf_ltm gf; emc; sw_mf ]

let mf_sw ?(mf_capacity = default_mf_capacity) () =
  hierarchy "mf_sw" [ nic_mf mf_capacity; sw_mf ]

(* The paper-faithful hybrid (Fig. 2b without the EMC): Gigaflow LTM on the
   NIC backed by the software Megaflow. *)
let gf_sw ?(gf = Gf_core.Config.default) () = hierarchy "gf_sw" [ gf_ltm gf; sw_mf ]
let gf_only ?(gf = Gf_core.Config.default) () = hierarchy "gf_only" [ gf_ltm gf ]

let mf_only ?(mf_capacity = default_mf_capacity) () =
  hierarchy "mf_only" [ nic_mf mf_capacity ]

let default_admission =
  Heavy_hitter.Heavy_hitter
    { k = Heavy_hitter.default_k; threshold = Heavy_hitter.default_threshold }

(* Skew-aware hybrids: the hardware level only admits flows the
   space-saving sketch says are hot; everything else lives in the cuckoo
   exact-match software table (two probes per lookup, no classifier
   search).  The paper-faithful hierarchies above keep [Admit_all]. *)
let mf_sw_hh ?(mf_capacity = default_mf_capacity) () =
  hierarchy ~admission:default_admission "mf_sw_hh" [ nic_mf mf_capacity; sw_ck ]

let gf_sw_hh ?(gf = Gf_core.Config.default) () =
  hierarchy ~admission:default_admission "gf_sw_hh" [ gf_ltm gf; sw_ck ]

let preset_names =
  [
    "emc_gf_sw";
    "emc_mf_sw";
    "gf_sw";
    "mf_sw";
    "gf_sw_hh";
    "mf_sw_hh";
    "gf_only";
    "mf_only";
  ]

let preset ?gf ?mf_capacity name =
  match name with
  | "emc_gf_sw" -> Some (emc_gf_sw ?gf ())
  | "emc_mf_sw" -> Some (emc_mf_sw ?mf_capacity ())
  | "gf_sw" -> Some (gf_sw ?gf ())
  | "mf_sw" -> Some (mf_sw ?mf_capacity ())
  | "gf_sw_hh" -> Some (gf_sw_hh ?gf ())
  | "mf_sw_hh" -> Some (mf_sw_hh ?mf_capacity ())
  | "gf_only" -> Some (gf_only ?gf ())
  | "mf_only" -> Some (mf_only ?mf_capacity ())
  | _ -> None

(* ------------------------- config combinators ------------------------- *)

let without_software cfg =
  {
    cfg with
    levels =
      List.filter
        (fun s -> Cache_level.spec_tier s = Cache_level.Hardware)
        cfg.levels;
  }

let with_sw_search algo cfg =
  {
    cfg with
    levels =
      List.map
        (function
          | Cache_level.Sw_megaflow s -> Cache_level.Sw_megaflow { s with search = algo }
          | s -> s)
        cfg.levels;
  }

let with_max_idle max_idle cfg = { cfg with max_idle }
let with_admission admission cfg = { cfg with admission }

(* Swap the software cache flavour: the wildcard Megaflow (classifier
   search, handles any traffic) vs the cuckoo exact-match table (two
   probes, the cheap home for mice under heavy-hitter admission).
   Capacity, idle budget and any eviction override carry over. *)
let with_sw_level kind cfg =
  let levels =
    List.map
      (fun s ->
        match (s, kind) with
        | Cache_level.Sw_megaflow { capacity; max_idle; evict; _ }, `Cuckoo ->
            Cache_level.Sw_cuckoo { capacity; max_idle; evict }
        | Cache_level.Sw_cuckoo { capacity; max_idle; evict }, `Megaflow ->
            Cache_level.Sw_megaflow { search = `Tss; capacity; max_idle; evict }
        | other, _ -> other)
      cfg.levels
  in
  { cfg with levels }

let with_policy policy cfg =
  {
    cfg with
    levels = List.map (fun s -> Cache_level.spec_with_evict s policy) cfg.levels;
  }

(* The metrics name of each spec, walk order: the spec's default name,
   deduplicated for hierarchies stacking the same level kind twice
   ("sw-mf", "sw-mf#2", ...).  [create] names levels with it and the
   [~level] knobs target levels by it. *)
let spec_level_names specs =
  let seen = Hashtbl.create 8 in
  List.map
    (fun spec ->
      let base = Cache_level.spec_name spec in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen base) in
      Hashtbl.replace seen base n;
      if n = 1 then base else Printf.sprintf "%s#%d" base n)
    specs

let with_level_policy ~level policy cfg =
  let levels =
    List.map2
      (fun name s ->
        if String.equal name level then Cache_level.spec_with_evict s policy else s)
      (spec_level_names cfg.levels) cfg.levels
  in
  { cfg with levels }

let hw_capacity cfg =
  List.fold_left
    (fun acc s ->
      if Cache_level.spec_tier s = Cache_level.Hardware then
        acc + Cache_level.spec_capacity s
      else acc)
    0 cfg.levels

(* ------------------------------ datapath ------------------------------ *)

type outcome = Hw_hit | Sw_hit | Slowpath

(* Compiled per-flow replay of a level-0 hardware hit, used only by
   [process_memo].  For a repeat flow whose hit stays at the top
   (hardware) level, every per-packet effect is a constant: the latency
   and its histogram buckets are the level's ([top_*] in [t]: hardware hit
   cost ignores work), and the rest are facts of the flow, computed once
   on the memoised walk.  Only the level-0 memo's replay ([p_replay], the
   backend's [lookup_replay] closure that [Cache_level.last_hit_replay]
   hands over) runs per packet, applying the hit's touches and returning
   the exact lookup work, or -1 once stale. *)
type pmemo = {
  p_replay : now:float -> int;
  p_depth : int;  (* tag-chain reuse depth of the compiled hit (tracer) *)
  p_is_drop : bool;
  p_result : outcome * Action.terminal option * float;
}

type t = {
  mutable cfg : config;
      (* Mutable for the online control knobs ([set_admission],
         [set_evict_policy], [set_level_capacity]): [config t] always
         reflects the live settings. *)
  pipeline : Pipeline.t;
  levels : Cache_level.t array;  (* walk order *)
  level_metrics : Metrics.level array;  (* same order *)
  metrics : Metrics.t;
  mutable last_expire : float;
  telemetry : Telemetry.t option;
      (* [None] (the default) keeps the per-packet path free of telemetry
         work: every emission site pattern-matches and the [None] branch
         does nothing — no calls, no float boxing. *)
  recorder : Recorder.t option;
      (* The telemetry's flight recorder, resolved once here: [Some] iff
         telemetry is attached with event tracing on.  Every emission site
         offers its event through [note]. *)
  mutable replay_tbl : pmemo option array;
      (* flow id -> compiled level-0 replay, grown on demand by the
         memoised walk only.  Entries self-invalidate through [p_replay];
         [revalidate] clears the lot. *)
  top_lat : float;
      (* Level 0's hit latency, us, when it is a hardware level (the only
         case [replay_tbl] is filled) ... *)
  top_gidx : int;  (* ... its bucket in the global latency histogram ... *)
  top_lidx : int;  (* ... and in level 0's *)
  top_cpw : int;  (* level 0 [cycles_per_work] *)
  mutable hh : Heavy_hitter.t option;
      (* [Some] iff [cfg.admission] is [Heavy_hitter _]; observed once per
         packet on every packet path so walker and batched replay agree
         bit-for-bit.  Mutable only for [set_admission] transitions to and
         from [Admit_all]; retuning K retargets the sketch in place. *)
  mutable hh_threshold : int;
  mutable hh_hot : bool;
      (* The per-packet hot bit: whether the packet being walked belongs
         to a flow the sketch calls hot, latched by [observe_hh] right
         after the packet's observation.  Nothing changes the sketch or
         the threshold until the next packet, so the three admission
         reads of one walk (miss cause, install gate, promotion) share
         this one test instead of re-hashing the flow.  Meaningful only
         while [hh] is [Some]. *)
  hh_attempted : unit Flow.Tbl.t;
      (* Flows already offered a hardware promotion this sweep interval —
         rate-limits the promotion path to once per flow per sweep; cleared
         by the admission sweep in [maybe_expire]. *)
  tracer : Tracer.t option;
      (* [Some] iff telemetry is attached with [trace_sample_every > 0]:
         the traversal tracer.  Sampled packets append probe / slowpath
         spans to its ring.  [None] keeps the packet path free of tracer
         work (one pattern match per site). *)
  level_is_ltm : bool array;  (* walk order: level is the Gigaflow LTM *)
  level_is_hw : bool array;
  level_max_idle : float array;  (* descriptor idle budgets, for Expired *)
  (* Per-level, per-flow admission history, read to resolve each miss's
     [Metrics.cause]: what happened to this flow at this level last, and
     when it was last seen there.
     Flat arrays indexed by flow id with doubling growth (they saturate
     at the trace's flow count, keeping the soak test's heap flat). *)
  mutable fs_cap : int;
  fs_state : Bytes.t array;
      (* '\000' never installed, '\001' installed, '\002' admission-
         deferred, '\003' install-rejected, '\004' installed before the
         last [revalidate] and neither installed nor marked since *)
  fs_seen : float array array;
  mutable fs_seen0 : float array;
      (* alias of [fs_seen.(0)], re-pointed on growth: the memo fast
         path touches level-0 recency once per packet and skips the
         double indirection *)
}

let create ?telemetry cfg pipeline =
  let levels =
    List.map2
      (fun name spec ->
        Cache_level.build ~name ~default_max_idle:cfg.max_idle ~pipeline spec)
      (spec_level_names cfg.levels) cfg.levels
    |> Array.of_list
  in
  let metrics = Metrics.create () in
  let level_metrics =
    Array.map (fun l -> Metrics.level metrics (Cache_level.name l)) levels
  in
  (* Give the Gigaflow install path its registry handles up front (lookup
     happens once here, never per packet). *)
  (match telemetry with
  | Some tel ->
      Array.iter
        (fun l ->
          match Cache_level.backend l with
          | Cache_level.Ltm (g, _) ->
              Gf_core.Gigaflow.attach_telemetry g (Telemetry.registry tel)
          | Cache_level.Emc _ | Cache_level.Megaflow _ | Cache_level.Cuckoo _ -> ())
        levels
  | None -> ());
  let hh, hh_threshold =
    match cfg.admission with
    | Heavy_hitter.Admit_all -> (None, 0)
    | Heavy_hitter.Heavy_hitter { k; threshold } ->
        (Some (Heavy_hitter.create ~k), threshold)
  in
  let tracer =
    match telemetry with
    | Some tel when (Telemetry.config tel).Telemetry.trace_sample_every > 0 ->
        let tr =
          Tracer.create
            ~sample_every:(Telemetry.config tel).Telemetry.trace_sample_every
            ~level_names:(Array.map Cache_level.name levels)
            ()
        in
        Telemetry.set_tracer tel tr;
        Some tr
    | Some _ | None -> None
  in
  let n_levels = Array.length levels in
  let fs_cap = 1024 in
  let fs_seen = Array.init n_levels (fun _ -> Array.make fs_cap neg_infinity) in
  let top_lat, top_cpw =
    if n_levels = 0 then (0.0, 0)
    else
      let d = Cache_level.descriptor levels.(0) in
      (d.Cache_level.hit_us ~work:0, d.Cache_level.cycles_per_work)
  in
  {
    cfg;
    pipeline;
    levels;
    level_metrics;
    metrics;
    last_expire = 0.0;
    telemetry;
    recorder = Option.bind telemetry Telemetry.recorder;
    replay_tbl = Array.make 1024 None;
    top_lat;
    top_gidx = Histogram.index metrics.Metrics.latency_hist top_lat;
    top_lidx =
      (if n_levels = 0 then 0
       else Histogram.index level_metrics.(0).Metrics.latency_hist top_lat);
    top_cpw;
    hh;
    hh_threshold;
    hh_hot = false;
    hh_attempted = Flow.Tbl.create 64;
    tracer;
    level_is_ltm =
      Array.map
        (fun l ->
          match Cache_level.backend l with
          | Cache_level.Ltm _ -> true
          | Cache_level.Emc _ | Cache_level.Megaflow _ | Cache_level.Cuckoo _ -> false)
        levels;
    level_is_hw =
      Array.map (fun l -> Cache_level.tier l = Cache_level.Hardware) levels;
    level_max_idle =
      Array.map (fun l -> (Cache_level.descriptor l).Cache_level.max_idle) levels;
    fs_cap;
    fs_state = Array.init n_levels (fun _ -> Bytes.make fs_cap '\000');
    fs_seen;
    fs_seen0 = (if n_levels > 0 then fs_seen.(0) else [||]);
  }

let heavy_hitter t = t.hh
let config t = t.cfg
let pipeline t = t.pipeline
let levels t = Array.to_list t.levels

(* ------------------------- online control knobs ------------------------ *)

let level_names t = Array.map Cache_level.name t.levels

let find_level t name =
  match
    Array.find_opt (fun l -> String.equal (Cache_level.name l) name) t.levels
  with
  | Some l -> l
  | None ->
      invalid_arg
        (Printf.sprintf "Datapath: no cache level named %S (have: %s)" name
           (String.concat ", " (Array.to_list (level_names t))))

(* Retune admission online.  K changes retarget the existing sketch in
   place (counts, error bounds and the tracked hot set carry over — the
   controller's whole point is not to forget the elephants it just
   learned); threshold changes are a field write.  Transitions to/from
   [Admit_all] drop or create the sketch.  [config t] stays truthful. *)
let set_admission t admission =
  (match (admission, t.hh) with
  | Heavy_hitter.Admit_all, _ ->
      t.hh <- None;
      t.hh_threshold <- 0;
      Flow.Tbl.reset t.hh_attempted
  | Heavy_hitter.Heavy_hitter { k; threshold }, Some hh ->
      Heavy_hitter.retarget hh ~k;
      t.hh_threshold <- threshold
  | Heavy_hitter.Heavy_hitter { k; threshold }, None ->
      t.hh <- Some (Heavy_hitter.create ~k);
      t.hh_threshold <- threshold);
  t.cfg <- { t.cfg with admission }

let set_evict_policy t ~level policy =
  Cache_level.set_evict (find_level t level) policy;
  (* Keep the spec list consistent for [config t] readers. *)
  t.cfg <- with_level_policy ~level policy t.cfg

let set_level_capacity t ~level capacity =
  Cache_level.set_capacity (find_level t level) capacity

let evict_policy t ~level = Cache_level.evict_policy (find_level t level)

let gigaflow t =
  Array.find_map
    (fun l ->
      match Cache_level.backend l with
      | Cache_level.Ltm (g, _) -> Some g
      | Cache_level.Emc _ | Cache_level.Megaflow _ | Cache_level.Cuckoo _ -> None)
    t.levels

let hw_occupancy t =
  Array.fold_left
    (fun acc l ->
      if Cache_level.tier l = Cache_level.Hardware then acc + Cache_level.occupancy l
      else acc)
    0 t.levels

(* Offer one event at level [i] to the flight recorder (a no-op match
   when event tracing is off). *)
let[@inline] note t kind ~level:i ~packet ~time ~lat ~count =
  match t.recorder with
  | Some r ->
      Recorder.record r ~packet ~time ~level:(Cache_level.name t.levels.(i))
        ~latency_us:lat ~count kind
  | None -> ()

(* Unified idle-expiry sweep: every level evicts on its own descriptor's
   idle budget; per-level eviction counts are recorded (nothing is
   [ignore]d) and hardware-tier evictions also feed the aggregate
   [hw_evictions]. *)
let maybe_expire t ~now =
  if now -. t.last_expire >= t.cfg.expire_every then begin
    t.last_expire <- now;
    Array.iteri
      (fun i level ->
        let evicted = Cache_level.expire level ~now in
        let lm = t.level_metrics.(i) in
        lm.Metrics.evictions <- lm.Metrics.evictions + evicted;
        if Cache_level.tier level = Cache_level.Hardware then
          t.metrics.Metrics.hw_evictions <- t.metrics.Metrics.hw_evictions + evicted;
        if evicted > 0 then
          note t Recorder.Evict ~level:i ~packet:t.metrics.Metrics.packets ~time:now
            ~lat:0.0 ~count:evicted)
      t.levels;
    (* Admission re-partition: decay the sketch (so yesterday's elephants
       must keep earning their slots), reopen the per-sweep promotion
       budget, then demote hardware entries whose flows went cold.  Runs
       on the expiry cadence so walker and batched replay sweep at the
       same packet boundaries. *)
    match t.hh with
    | None -> ()
    | Some hh ->
        Heavy_hitter.decay hh;
        Flow.Tbl.reset t.hh_attempted;
        let is_hot = Heavy_hitter.hot hh ~threshold:t.hh_threshold in
        Array.iteri
          (fun i level ->
            if Cache_level.tier level = Cache_level.Hardware then begin
              let demoted = Cache_level.demote level ~is_hot in
              if demoted > 0 then begin
                let lm = t.level_metrics.(i) in
                lm.Metrics.demotions <- lm.Metrics.demotions + demoted;
                lm.Metrics.evictions <- lm.Metrics.evictions + demoted;
                t.metrics.Metrics.hw_demotions <-
                  t.metrics.Metrics.hw_demotions + demoted;
                t.metrics.Metrics.hw_evictions <-
                  t.metrics.Metrics.hw_evictions + demoted;
                note t Recorder.Demote ~level:i ~packet:t.metrics.Metrics.packets
                  ~time:now ~lat:0.0 ~count:demoted
              end
            end)
          t.levels
  end

(* Unified revalidation sweep (pipeline updated): every level re-checks its
   entries; evictions are accounted per level.  Returns (evicted, work). *)
let revalidate t ~now =
  (* The pipeline (possibly) changed: compiled replays are stale, and a
     flow installed before now misses to [Revalidation] until it installs
     or is marked again. *)
  Array.fill t.replay_tbl 0 (Array.length t.replay_tbl) None;
  Array.iter
    (fun st ->
      for fid = 0 to Bytes.length st - 1 do
        if Bytes.unsafe_get st fid = '\001' then Bytes.unsafe_set st fid '\004'
      done)
    t.fs_state;
  let total_evicted = ref 0 and total_work = ref 0 in
  Array.iteri
    (fun i level ->
      let evicted, work = Cache_level.revalidate level t.pipeline in
      let lm = t.level_metrics.(i) in
      lm.Metrics.evictions <- lm.Metrics.evictions + evicted;
      lm.Metrics.revalidations <- lm.Metrics.revalidations + evicted;
      if Cache_level.tier level = Cache_level.Hardware then
        t.metrics.Metrics.hw_evictions <- t.metrics.Metrics.hw_evictions + evicted;
      total_evicted := !total_evicted + evicted;
      total_work := !total_work + work;
      note t Recorder.Revalidate ~level:i ~packet:t.metrics.Metrics.packets ~time:now
        ~lat:0.0 ~count:evicted)
    t.levels;
  (!total_evicted, !total_work)

(* --------------------------- miss attribution -------------------------- *)

(* Every flow-id-indexed array grows by doubling, from 1,024 slots: the
   length to which an array of length [n] grows so that [fid] indexes it. *)
let grown_length n fid =
  let n' = ref (max 1024 (2 * n)) in
  while fid >= !n' do
    n' := 2 * !n'
  done;
  !n'

(* Grow the per-flow admission-history arrays until [fid] indexes them. *)
let ensure_flow_slot t fid =
  if fid >= t.fs_cap then begin
    let cap = grown_length t.fs_cap fid in
    Array.iteri
      (fun i b ->
        let b' = Bytes.make cap '\000' in
        Bytes.blit b 0 b' 0 t.fs_cap;
        t.fs_state.(i) <- b')
      t.fs_state;
    Array.iteri
      (fun i s ->
        let s' = Array.make cap neg_infinity in
        Array.blit s 0 s' 0 t.fs_cap;
        t.fs_seen.(i) <- s')
      t.fs_seen;
    t.fs_seen0 <- (if Array.length t.fs_seen > 0 then t.fs_seen.(0) else [||]);
    t.fs_cap <- cap
  end

(* Record an admission outcome for [fid] at level [i]. *)
let fs_mark t ~level:i fid st =
  if fid >= 0 then begin
    ensure_flow_slot t fid;
    Bytes.unsafe_set t.fs_state.(i) fid st
  end

let fs_install t ~level:i ~now fid =
  if fid >= 0 then begin
    ensure_flow_slot t fid;
    Bytes.unsafe_set t.fs_state.(i) fid '\001';
    t.fs_seen.(i).(fid) <- now
  end

let fs_touch t ~level:i ~now fid =
  if fid >= 0 then begin
    ensure_flow_slot t fid;
    (* [ensure_flow_slot] guarantees [fid < fs_cap]. *)
    Array.unsafe_set t.fs_seen.(i) fid now
  end

(* Host-cycle width of a probe span: the software search cycles when the
   level burns host CPU, the NIC probe pipeline cost for hardware levels
   (whose [cycles_per_work] is 0 on the host — the span still needs a
   non-degenerate width to show up in a flamegraph). *)
let span_cycles ~cpw ~work = work * (if cpw > 0 then cpw else Latency.probe_cycles)

(* Resolve the cause of a miss at level [i] — reading the level the way an
   operator would: an LTM chain that matched a prefix then dead-ended is a
   tag-chain stall; a flow never installed here is cold;
   admission-deferred and install-rejected flows keep their recorded
   state; an installed flow that missed lost its entry — to revalidation
   if its install predates the last pipeline update, to idle expiry if it
   outlived the level's idle budget, to admission demotion if the sketch
   stopped calling it hot (hardware under heavy-hitter admission), else to
   capacity pressure. *)
let miss_cause t ~level:i ~now ~depth fid =
  if depth > 0 then Metrics.Tag_chain_stall
  else if fid < 0 || fid >= t.fs_cap then Metrics.Cold
  else
    match Bytes.unsafe_get t.fs_state.(i) fid with
    | '\000' -> Metrics.Cold
    | '\002' -> Metrics.Deferred_admission
    | '\003' -> Metrics.Pressure_evicted
    | '\004' -> Metrics.Revalidation
    | _ -> (
        if now -. t.fs_seen.(i).(fid) > t.level_max_idle.(i) then
          Metrics.Expired
        else
          match t.hh with
          | Some _ when t.level_is_hw.(i) && not t.hh_hot ->
              Metrics.Deferred_admission
          | Some _ | None -> Metrics.Pressure_evicted)

(* Inlined per-packet tracer countdown: the non-sampled case (N-1 of N
   packets) is a compare plus two stores with no cross-module call; the
   sampled case falls through to [Tracer.on_packet], which re-reads
   [until] = 0, notes the sampled packet and resets the countdown.
   Small enough for ocamlopt's classic inliner. *)
let tracer_tick tr =
  if tr.Tracer.until = 0 then ignore (Tracer.on_packet tr : bool)
  else begin
    tr.Tracer.until <- tr.Tracer.until - 1;
    tr.Tracer.active <- false
  end

(* Probe span for a sampled packet's miss or hit at level [i]. *)
let trace_probe t tr ~level:i ~now ~work ~cpw ~depth outcome =
  Tracer.span tr
    ~packet:(t.metrics.Metrics.packets - 1)
    ~time:now ~level:i ~table:(-1) ~depth
    ~cycles:(span_cycles ~cpw ~work)
    ~outcome

(* ------------------------------ slowpath ------------------------------ *)

(* Offer a traversal to level [i] and account the report: the level's
   [Metrics] (and the hardware aggregates), the per-flow admission
   history and the flight recorder. *)
let install_at t ~now ~flow_id ~version i traversal =
  let m = t.metrics and lm = t.level_metrics.(i) in
  let r = Cache_level.install_from_traversal t.levels.(i) ~now ~version traversal in
  lm.Metrics.installs <- lm.Metrics.installs + r.Cache_level.fresh;
  lm.Metrics.shared <- lm.Metrics.shared + r.Cache_level.shared;
  lm.Metrics.rejected <- lm.Metrics.rejected + r.Cache_level.rejected;
  lm.Metrics.pressure_evictions <-
    lm.Metrics.pressure_evictions + r.Cache_level.pressure_evicted;
  if t.level_is_hw.(i) then begin
    m.Metrics.hw_installs <- m.Metrics.hw_installs + r.Cache_level.fresh;
    m.Metrics.hw_shared <- m.Metrics.hw_shared + r.Cache_level.shared;
    m.Metrics.hw_rejected <- m.Metrics.hw_rejected + r.Cache_level.rejected;
    m.Metrics.hw_pressure_evictions <-
      m.Metrics.hw_pressure_evictions + r.Cache_level.pressure_evicted
  end;
  if r.Cache_level.rejected > 0 then fs_mark t ~level:i flow_id '\003'
  else if r.Cache_level.fresh + r.Cache_level.shared > 0 then
    fs_install t ~level:i ~now flow_id;
  let packet = m.Metrics.packets - 1 in
  if r.Cache_level.fresh > 0 then
    note t Recorder.Install ~level:i ~packet ~time:now ~lat:0.0
      ~count:r.Cache_level.fresh;
  if r.Cache_level.rejected > 0 then
    note t Recorder.Reject ~level:i ~packet ~time:now ~lat:0.0
      ~count:r.Cache_level.rejected;
  if r.Cache_level.pressure_evicted > 0 then
    note t Recorder.Pressure_evict ~level:i ~packet ~time:now ~lat:0.0
      ~count:r.Cache_level.pressure_evicted;
  r

let hw_install_on_miss t i =
  t.level_is_hw.(i)
  && (Cache_level.descriptor t.levels.(i)).Cache_level.policy
     = Cache_level.Install_on_miss

(* Offer a slowpath traversal to the levels that take it: every level on a
   slowpath, only the hardware install-on-miss levels on a promotion.
   Heavy-hitter admission: hardware slots are scarce, so on a slowpath a
   flow the sketch does not (yet) consider hot is not offered to hardware
   install-on-miss levels — it lands in the software tier and earns a
   slot through the promotion path once its count clears the threshold.
   The guaranteed count (count - err) is used, so a mouse that inherited a
   large victim count is not admitted.  The test is the packet's hot bit:
   the traversal's input is this packet's flow.  Charges the partition and
   rule-generation cycles; returns the partition work, the rule-generation
   work, the hardware entries written and whether any cache mutated. *)
let offer_traversal t ~now ~flow_id ~promotion traversal =
  let m = t.metrics in
  let version = Pipeline.version t.pipeline in
  let defer_hw =
    (not promotion) && match t.hh with None -> false | Some _ -> not t.hh_hot
  in
  let hw_fresh = ref 0 and partition_work = ref 0 and rulegen_work = ref 0 in
  let mutated = ref false in
  for i = 0 to Array.length t.levels - 1 do
    let hw_level = hw_install_on_miss t i in
    if defer_hw && hw_level then begin
      let lm = t.level_metrics.(i) in
      lm.Metrics.deferred <- lm.Metrics.deferred + 1;
      m.Metrics.hw_deferred <- m.Metrics.hw_deferred + 1;
      fs_mark t ~level:i flow_id '\002';
      note t Recorder.Defer ~level:i ~packet:(m.Metrics.packets - 1) ~time:now
        ~lat:0.0 ~count:1
    end
    else if hw_level || not promotion then begin
      let r = install_at t ~now ~flow_id ~version i traversal in
      partition_work := !partition_work + r.Cache_level.partition_work;
      rulegen_work := !rulegen_work + r.Cache_level.rulegen_work;
      (* PCIe table writes: only NIC-resident levels pay per-install
         latency. *)
      if t.level_is_hw.(i) then hw_fresh := !hw_fresh + r.Cache_level.fresh;
      if r.Cache_level.fresh > 0 || r.Cache_level.pressure_evicted > 0 then
        mutated := true
    end
  done;
  m.Metrics.cycles_partition <-
    m.Metrics.cycles_partition + Latency.cycles_partition ~partition_work:!partition_work;
  m.Metrics.cycles_rulegen <-
    m.Metrics.cycles_rulegen + Latency.cycles_rulegen ~rulegen_work:!rulegen_work;
  (!partition_work, !rulegen_work, !hw_fresh, !mutated)

(* Full slowpath: execute the pipeline and offer the traversal to every
   level's install policy.  Returns (terminal option, service latency
   us). *)
let slowpath t ~now ~flow_id flow =
  let m = t.metrics in
  match Executor.execute t.pipeline flow with
  | Error _ -> (None, Latency.upcall_us)
  | Ok traversal ->
      let partition_work, rulegen_work, installs, _ =
        offer_traversal t ~now ~flow_id ~promotion:false traversal
      in
      (* Sampled packets attribute the slowpath table-by-table: one span
         per traversal step, costed at that step's share of the userspace
         lookup cycles (the per-step costs sum to the charged total). *)
      (match t.tracer with
      | Some tr when tr.Tracer.active ->
          let packet = m.Metrics.packets - 1 in
          Array.iter
            (fun (s : Traversal.step) ->
              Tracer.span tr ~packet ~time:now ~level:(-1)
                ~table:s.Traversal.table_id ~depth:0
                ~cycles:
                  (Latency.cycles_userspace ~pipeline_lookups:1
                     ~tuple_probes:s.Traversal.probes)
                ~outcome:Attribution.outcome_slowpath)
            traversal.Traversal.steps
      | Some _ | None -> ());
      let pipeline_lookups = Traversal.length traversal in
      let tuple_probes =
        Array.fold_left
          (fun acc s -> acc + s.Traversal.probes)
          0 traversal.Traversal.steps
      in
      m.Metrics.cycles_userspace <-
        m.Metrics.cycles_userspace
        + Latency.cycles_userspace ~pipeline_lookups ~tuple_probes;
      let lat =
        Latency.slowpath_us ~pipeline_lookups ~tuple_probes ~partition_work
          ~rulegen_work ~installs
      in
      (Some traversal.Traversal.terminal, lat)

(* Promotion trigger: a software-tier hit of a flow the sketch now calls
   hot means an elephant is stuck below the hardware line (its install
   was deferred while cold, or it was demoted) — offer it hardware
   residence, at most once per flow per sweep interval.  Models the
   revalidator thread pushing a proven elephant down to the NIC off the
   packet path: install, partition and rule-generation accounting is real
   (the work happens), but no packet latency is charged.  Returns [true]
   iff any cache mutated. *)
let maybe_promote_hot t ~now ~flow_id flow tier =
  match t.hh with
  | Some _
    when tier = Cache_level.Software
         && t.hh_hot
         && not (Flow.Tbl.mem t.hh_attempted flow) -> (
      Flow.Tbl.replace t.hh_attempted flow ();
      match Executor.execute t.pipeline flow with
      | Error _ -> false
      | Ok traversal ->
          let _, _, _, mutated =
            offer_traversal t ~now ~flow_id ~promotion:true traversal
          in
          mutated)
  | Some _ | None -> false

(* Let the promote-on-hit levels shallower than a hit at level [i] (the
   EMC) learn its decision for subsequent packets of this flow.  A level
   that refuses the entry (full under [Reject]) is accounted like a
   rejected install.  Returns [true] iff any level learned. *)
let promote_above t ~now ~flow_id flow h i =
  let m = t.metrics in
  let promoted = ref false in
  for j = 0 to i - 1 do
    let lj = t.levels.(j) in
    if (Cache_level.descriptor lj).Cache_level.policy = Cache_level.Promote_on_hit
    then begin
      let lmj = t.level_metrics.(j) in
      let packet = m.Metrics.packets - 1 in
      let pe =
        match Cache_level.promote lj ~now flow h with
        | Gf_cache.Install.Rejected { pressure_evicted } ->
            lmj.Metrics.rejected <- lmj.Metrics.rejected + 1;
            if t.level_is_hw.(j) then m.Metrics.hw_rejected <- m.Metrics.hw_rejected + 1;
            fs_mark t ~level:j flow_id '\003';
            note t Recorder.Reject ~level:j ~packet ~time:now ~lat:0.0 ~count:1;
            pressure_evicted
        | Gf_cache.Install.Installed { pressure_evicted; _ } ->
            promoted := true;
            fs_install t ~level:j ~now flow_id;
            lmj.Metrics.promotions <- lmj.Metrics.promotions + 1;
            note t Recorder.Promote ~level:j ~packet ~time:now ~lat:0.0 ~count:1;
            pressure_evicted
      in
      if pe > 0 then begin
        lmj.Metrics.pressure_evictions <- lmj.Metrics.pressure_evictions + pe;
        if t.level_is_hw.(j) then
          m.Metrics.hw_pressure_evictions <- m.Metrics.hw_pressure_evictions + pe;
        note t Recorder.Pressure_evict ~level:j ~packet ~time:now ~lat:0.0 ~count:pe
      end
    end
  done;
  !promoted

(* Count the packet in the sketch and latch its hot bit ([hh_hot]). *)
let observe_hh t hh flow =
  Heavy_hitter.observe hh flow;
  t.hh_hot <- Heavy_hitter.last_guaranteed hh >= t.hh_threshold

(* A hardware hit at the top level has constant per-packet effects:
   compile them so this flow's next packets take [process_memo]'s fast
   path.  The level's latest memoised lookup was this flow's. *)
let compile_replay t ~flow_id ((_, terminal, _) as result) =
  let level = t.levels.(0) in
  match Cache_level.last_hit_replay level with
  | Some p_replay ->
      let n = Array.length t.replay_tbl in
      if flow_id >= n then begin
        let a = Array.make (grown_length n flow_id) None in
        Array.blit t.replay_tbl 0 a 0 n;
        t.replay_tbl <- a
      end;
      t.replay_tbl.(flow_id) <-
        Some
          {
            p_replay;
            p_depth = (if t.level_is_ltm.(0) then Cache_level.last_depth level else 1);
            p_is_drop = (terminal = Some Action.Drop);
            p_result = result;
          }
  | None -> ()

(* The per-packet hierarchy walk: first hit wins, misses fall through, a
   full miss runs the slowpath.  [memo] selects the amortised flavour the
   batched engine runs — level lookups through each level's per-flow memo
   ([Cache_level.lookup_memo], which replays the backend's last lookup)
   and a compiled [pmemo] for a level-0 hardware hit — with identical
   observable effects; a slowpath executes the pipeline either way.
   Every per-flow memo is keyed by [flow_id], so it engages only for a
   known flow ([flow_id >= 0]).  Either way the occupancy-peak scan runs
   only when something mutated (expiry sweep, promotion, slowpath
   install): a pure-hit packet cannot raise a peak. *)
let walk t ~memo ~now ~flow_id flow =
  let memo = memo && flow_id >= 0 in
  let m = t.metrics in
  let expired = now -. t.last_expire >= t.cfg.expire_every in
  maybe_expire t ~now;
  m.Metrics.packets <- m.Metrics.packets + 1;
  (match t.tracer with
  | Some tr -> tracer_tick tr
  | None -> ());
  (match t.hh with Some hh -> observe_hh t hh flow | None -> ());
  let n = Array.length t.levels in
  let mutated = ref expired in
  let rec go i =
    if i >= n then begin
      m.Metrics.slowpaths <- m.Metrics.slowpaths + 1;
      mutated := true;
      let terminal, service_us = slowpath t ~now ~flow_id flow in
      (Slowpath, terminal, Latency.upcall_us +. Latency.sw_base_us +. service_us, -1)
    end
    else begin
      let level = t.levels.(i) in
      let d = Cache_level.descriptor level in
      let hit, work =
        if memo then Cache_level.lookup_memo level ~now ~flow_id flow
        else Cache_level.lookup level ~now flow
      in
      let lm = t.level_metrics.(i) in
      lm.Metrics.work <- lm.Metrics.work + work;
      m.Metrics.cycles_sw_search <-
        m.Metrics.cycles_sw_search + (work * d.Cache_level.cycles_per_work);
      match hit with
      | None ->
          let depth =
            if t.level_is_ltm.(i) then Cache_level.last_depth level else 0
          in
          Metrics.record_miss lm (miss_cause t ~level:i ~now ~depth flow_id);
          (match t.tracer with
          | Some tr when tr.Tracer.active ->
              trace_probe t tr ~level:i ~now ~work
                ~cpw:d.Cache_level.cycles_per_work ~depth
                Attribution.outcome_miss
          | Some _ | None -> ());
          note t Recorder.Miss ~level:i ~packet:(m.Metrics.packets - 1) ~time:now
            ~lat:0.0 ~count:1;
          go (i + 1)
      | Some h ->
          lm.Metrics.hits <- lm.Metrics.hits + 1;
          fs_touch t ~level:i ~now flow_id;
          (match t.tracer with
          | Some tr when tr.Tracer.active ->
              let depth =
                if t.level_is_ltm.(i) then Cache_level.last_depth level else 1
              in
              trace_probe t tr ~level:i ~now ~work
                ~cpw:d.Cache_level.cycles_per_work ~depth
                Attribution.outcome_hit
          | Some _ | None -> ());
          if promote_above t ~now ~flow_id flow h i then mutated := true;
          if maybe_promote_hot t ~now ~flow_id flow d.Cache_level.tier then
            mutated := true;
          let outcome, lat =
            match d.Cache_level.tier with
            | Cache_level.Hardware ->
                m.Metrics.hw_hits <- m.Metrics.hw_hits + 1;
                (Hw_hit, d.Cache_level.hit_us ~work)
            | Cache_level.Software ->
                m.Metrics.sw_hits <- m.Metrics.sw_hits + 1;
                ( Sw_hit,
                  Latency.upcall_us +. Latency.sw_base_us
                  +. d.Cache_level.hit_us ~work )
          in
          Histogram.record lm.Metrics.latency_hist lat;
          note t Recorder.Hit ~level:i ~packet:(m.Metrics.packets - 1) ~time:now ~lat
            ~count:1;
          (outcome, Some h.Gf_cache.Hit.terminal, lat, i)
    end
  in
  let outcome, terminal, latency, hit_level = go 0 in
  (match terminal with
  | Some Action.Drop -> m.Metrics.drops <- m.Metrics.drops + 1
  | Some (Action.Output _ | Action.Controller) | None -> ());
  Gf_util.Stats.Acc.add m.Metrics.latency latency;
  Histogram.record m.Metrics.latency_hist latency;
  if !mutated then begin
    let hw_occ = ref 0 in
    Array.iteri
      (fun i level ->
        let occ = Cache_level.occupancy level in
        let lm = t.level_metrics.(i) in
        if occ > lm.Metrics.occupancy_peak then lm.Metrics.occupancy_peak <- occ;
        if t.level_is_hw.(i) then hw_occ := !hw_occ + occ)
      t.levels;
    if !hw_occ > m.Metrics.hw_entries_peak then m.Metrics.hw_entries_peak <- !hw_occ
  end;
  let result = (outcome, terminal, latency) in
  if memo && hit_level = 0 && t.level_is_hw.(0) then compile_replay t ~flow_id result;
  result

let process ?(flow_id = -1) t ~now flow = walk t ~memo:false ~now ~flow_id flow

(* [process] amortised for the batched engine.  Repeat flows hitting the
   hardware top level replay a compiled constant effect ([pmemo]) — no
   level dispatch, no hash probes, no log2 per packet —
   every other packet takes the memoised [walk].  The fast path is only
   legal when no expiry sweep is due (a due sweep must run, and may evict
   anything), and it re-validates the memoised entry on every packet
   through [p_replay], so observable effects stay identical to
   [process]'s. *)
let process_memo t ~now ~flow_id flow =
  if
    flow_id >= 0
    && flow_id < Array.length t.replay_tbl
    && now -. t.last_expire < t.cfg.expire_every
  then begin
    match t.replay_tbl.(flow_id) with
    | Some pm ->
        let work = pm.p_replay ~now in
        if work >= 0 then begin
          let m = t.metrics in
          m.Metrics.packets <- m.Metrics.packets + 1;
          (match t.tracer with
          | Some tr ->
              tracer_tick tr;
              if tr.Tracer.active then
                trace_probe t tr ~level:0 ~now ~work ~cpw:t.top_cpw
                  ~depth:pm.p_depth Attribution.outcome_hit
          | None -> ());
          (* Inlined [fs_touch ~level:0] — [flow_id >= 0] is checked at
             entry, so one bounds test suffices. *)
          if flow_id < t.fs_cap then Array.unsafe_set t.fs_seen0 flow_id now
          else fs_touch t ~level:0 ~now flow_id;
          (match t.hh with Some hh -> observe_hh t hh flow | None -> ());
          let lm0 = t.level_metrics.(0) in
          lm0.Metrics.work <- lm0.Metrics.work + work;
          m.Metrics.cycles_sw_search <-
            m.Metrics.cycles_sw_search + (work * t.top_cpw);
          lm0.Metrics.hits <- lm0.Metrics.hits + 1;
          m.Metrics.hw_hits <- m.Metrics.hw_hits + 1;
          Histogram.record_at lm0.Metrics.latency_hist t.top_lidx t.top_lat;
          note t Recorder.Hit ~level:0 ~packet:(m.Metrics.packets - 1) ~time:now
            ~lat:t.top_lat ~count:1;
          if pm.p_is_drop then m.Metrics.drops <- m.Metrics.drops + 1;
          Gf_util.Stats.Acc.add m.Metrics.latency t.top_lat;
          Histogram.record_at m.Metrics.latency_hist t.top_gidx t.top_lat;
          pm.p_result
        end
        else begin
          (* Entry left the level (evicted, replaced): drop the stale
             compilation and walk; a fresh one is compiled on the next
             top-level hit. *)
          t.replay_tbl.(flow_id) <- None;
          walk t ~memo:true ~now ~flow_id flow
        end
    | None -> walk t ~memo:true ~now ~flow_id flow
  end
  else walk t ~memo:true ~now ~flow_id flow

(* A time-series sample built straight from the live Metrics counters, so
   the final sample of a run agrees with the run's Metrics exactly.  Pulls
   the tracer's span ring into its aggregates on the way. *)
let snapshot t ~time =
  (match t.tracer with Some tr -> Tracer.flush tr | None -> ());
  let m = t.metrics in
  let h = m.Metrics.latency_hist in
  let q f = if Histogram.count h = 0 then 0.0 else f h in
  {
    Series.s_packet = m.Metrics.packets;
    s_time = time;
    s_hw_hits = m.Metrics.hw_hits;
    s_sw_hits = m.Metrics.sw_hits;
    s_slowpaths = m.Metrics.slowpaths;
    s_hw_hit_rate = Metrics.hw_hit_rate m;
    s_mean_us = Metrics.mean_latency_us m;
    s_p50_us = q Histogram.p50;
    s_p90_us = q Histogram.p90;
    s_p99_us = q Histogram.p99;
    s_p999_us = q Histogram.p999;
    s_levels =
      Array.to_list
        (Array.mapi
           (fun i level ->
             let lm = t.level_metrics.(i) in
             let lh = lm.Metrics.latency_hist in
             let lq f = if Histogram.count lh = 0 then 0.0 else f lh in
             {
               Series.ls_level = lm.Metrics.level_name;
               ls_tier = Cache_level.tier_name (Cache_level.tier level);
               ls_hits = lm.Metrics.hits;
               ls_misses = lm.Metrics.misses;
               ls_hit_rate = Metrics.level_hit_rate lm;
               ls_occupancy = Cache_level.occupancy level;
               ls_p50_us = lq Histogram.p50;
               ls_p99_us = lq Histogram.p99;
             })
           t.levels);
  }

(* End-of-run epilogue, shared by [run] and the batched engine's workers:
   record final occupancies, flush one unconditional telemetry sample
   (deduplicated by packet count) at [time] plus a full counter export, so
   a consumer's last JSONL sample and the Prometheus snapshot both agree
   with the returned Metrics exactly. *)
let finalize t ~time =
  t.metrics.Metrics.hw_entries_final <- hw_occupancy t;
  Array.iteri
    (fun i level ->
      t.level_metrics.(i).Metrics.occupancy_final <- Cache_level.occupancy level)
    t.levels;
  (match t.telemetry with
  | Some tel ->
      Telemetry.push_sample tel (snapshot t ~time);
      Metrics.to_registry t.metrics (Telemetry.registry tel);
      (match t.tracer with
      | Some tr ->
          Attribution.to_registry (Tracer.attribution tr) (Telemetry.registry tel)
      | None -> ())
  | None -> ());
  t.metrics

(* The streaming engine's per-batch sampler hook: push a time-series
   sample iff the batch crossed the sampling cadence. *)
let maybe_sample t ~time =
  match t.telemetry with
  | Some tel when Telemetry.sample_due tel ~packets:t.metrics.Metrics.packets ->
      Telemetry.push_sample tel (snapshot t ~time)
  | Some _ | None -> ()

let run ?on_packet ?miss_sink t trace =
  (* Time-series sampling cadence, hoisted to a countdown: the per-packet
     [Telemetry.sample_due] call (a projection plus a [mod]) showed up in
     walker profiles, and [Series.due] fires exactly when the packet count
     crosses a multiple of [sample_every] — which a decrementing counter
     reproduces without touching the telemetry module per packet.  Packet
     counts only ever increase inside a run, so the duplicate-sample guard
     in [Series.due] is vacuous here. *)
  let sample_every =
    match t.telemetry with
    | Some tel -> (Telemetry.config tel).Telemetry.sample_every
    | None -> 0
  in
  let countdown =
    ref
      (if sample_every > 0 then
         sample_every - (t.metrics.Metrics.packets mod sample_every)
       else max_int)
  in
  let { Gf_workload.Trace.times; flow_ids; flows; _ } = trace in
  let n = Array.length times in
  for i = 0 to n - 1 do
    let flow_id = flow_ids.(i) in
    let before = Metrics.total_cycles t.metrics in
    let outcome, _terminal, latency =
      walk t ~memo:false ~now:times.(i) ~flow_id flows.(flow_id)
    in
    (match (outcome, miss_sink) with
    | Slowpath, Some sink ->
        sink ~flow_id ~cycles:(Metrics.total_cycles t.metrics - before)
    | (Hw_hit | Sw_hit | Slowpath), _ -> ());
    if sample_every > 0 then begin
      decr countdown;
      if !countdown = 0 then begin
        countdown := sample_every;
        match t.telemetry with
        | Some tel -> Telemetry.push_sample tel (snapshot t ~time:times.(i))
        | None -> ()
      end
    end;
    match on_packet with
    | Some f -> f i outcome latency
    | None -> ()
  done;
  let time = if n = 0 then 0.0 else times.(n - 1) in
  finalize t ~time

let metrics t = t.metrics
