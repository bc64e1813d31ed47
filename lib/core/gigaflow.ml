module Traversal = Gf_pipeline.Traversal
module Executor = Gf_pipeline.Executor
module Pipeline = Gf_pipeline.Pipeline
module Install = Gf_cache.Install

type slowpath_work = {
  pipeline_lookups : int;
  tuple_probes : int;
  partition_work : int;
  rulegen_work : int;
}

type miss_outcome = {
  traversal : Traversal.t;
  install : Install.t;
  segments : Partitioner.segment list;
  work : slowpath_work;
}

(* Traffic-profile-guided fallback (paper section 7): every [probe_period]-th
   miss is partitioned normally regardless of mode, measuring how much
   sub-traversal sharing the current traffic offers; per [window] of misses
   the mode flips between sub-traversal caching and whole-traversal
   (Megaflow-style) entries. *)
type adaptive_state = {
  mutable fallback : bool;
  mutable misses_in_window : int;
  mutable probe_fresh : int;
  mutable probe_shared : int;
}

let probe_period = 8
let window = 1024

(* Install-path telemetry handles, resolved once at {!attach_telemetry}
   time.  [None] (the default) keeps {!install_traversal} free of any
   telemetry work. *)
type probes = {
  p_fresh : int ref;
  p_shared : int ref;
  p_rejected : int ref;
  p_segments : int ref;
  p_whole : int ref;  (* whole-traversal (fallback-mode) installs *)
  p_flips : int ref;  (* adaptive fallback mode changes *)
  p_fallback : float ref;  (* gauge: 1.0 while in fallback mode *)
}

type t = {
  mutable config : Config.t;
  cache : Ltm_cache.t;
  rng : Gf_util.Rng.t;
  adaptive : adaptive_state;
  mutable probes : probes option;
}

let create ?(rng_seed = 0x61F1) config =
  {
    config;
    cache = Ltm_cache.create config;
    rng = Gf_util.Rng.create rng_seed;
    adaptive =
      { fallback = false; misses_in_window = 0; probe_fresh = 0; probe_shared = 0 };
    probes = None;
  }

let attach_telemetry t registry =
  let counter ?labels name help =
    Gf_telemetry.Registry.counter registry ?labels ~help name
  in
  t.probes <-
    Some
      {
        p_fresh =
          counter "gigaflow_ltm_rules_total"
            ~labels:[ ("result", "fresh") ]
            "LTM rules installed by result";
        p_shared = counter "gigaflow_ltm_rules_total" ~labels:[ ("result", "shared") ] "";
        p_rejected =
          counter "gigaflow_ltm_rules_total" ~labels:[ ("result", "rejected") ] "";
        p_segments =
          counter "gigaflow_ltm_segments_total"
            "Sub-traversal segments produced by the partitioner";
        p_whole =
          counter "gigaflow_ltm_whole_traversal_installs_total"
            "Installs collapsed to one whole-traversal entry (adaptive fallback)";
        p_flips =
          counter "gigaflow_ltm_fallback_flips_total"
            "Adaptive traffic-profile mode changes";
        p_fallback =
          Gf_telemetry.Registry.gauge registry
            ~help:"1 while the adaptive fallback (whole-traversal mode) is active"
            "gigaflow_ltm_fallback_active";
      }

let cache t = t.cache
let config t = t.config

let set_policy t policy =
  t.config <- { t.config with Config.policy };
  Ltm_cache.set_policy t.cache policy

let in_fallback t = t.adaptive.fallback

let lookup t ~now ~pipeline flow =
  Ltm_cache.lookup t.cache ~now ~entry_tag:(Pipeline.entry pipeline) flow

type install_outcome = {
  install : Install.t;
  segments : Partitioner.segment list;
  partition_work : int;
  rulegen_work : int;
}

(* Everything after slowpath execution: partition the traversal, generate
   LTM rules, install, and update the adaptive traffic profile.  Split from
   {!handle_miss} so cache-hierarchy adapters can install from a traversal
   the datapath already executed. *)
let install_traversal t ~now ~version traversal =
  let n = Traversal.length traversal in
  let budget = max 1 (Ltm_cache.available_tables t.cache) in
  let a = t.adaptive in
  let probe = t.config.Config.adaptive && a.misses_in_window mod probe_period = 0 in
  let whole = t.config.Config.adaptive && a.fallback && not probe in
  let segments =
    if whole then
      (* Low-locality fallback: one Megaflow-style whole-traversal entry. *)
      [ { Partitioner.first = 0; last = n - 1 } ]
    else
      Partitioner.partition ~rng:t.rng t.config.Config.scheme ~max_segments:budget
        traversal
  in
  let rules = Rulegen.rules_of_partition ~version traversal segments in
  let install = Ltm_cache.install t.cache ~now rules in
  (match t.probes with
  | None -> ()
  | Some p ->
      p.p_segments := !(p.p_segments) + List.length segments;
      if whole then incr p.p_whole;
      (match install with
      | Install.Installed { fresh; shared; _ } ->
          p.p_fresh := !(p.p_fresh) + fresh;
          p.p_shared := !(p.p_shared) + shared
      | Install.Rejected _ -> incr p.p_rejected));
  if t.config.Config.adaptive then begin
    a.misses_in_window <- a.misses_in_window + 1;
    (match install with
    | Install.Installed { fresh; shared; _ } when probe ->
        a.probe_fresh <- a.probe_fresh + fresh;
        a.probe_shared <- a.probe_shared + shared
    | Install.Installed _ | Install.Rejected _ -> ());
    if a.misses_in_window >= window then begin
      let total = a.probe_fresh + a.probe_shared in
      let sharing =
        if total = 0 then 0.0 else float_of_int a.probe_shared /. float_of_int total
      in
      let next = sharing < t.config.Config.adaptive_threshold in
      (match t.probes with
      | Some p ->
          if next <> a.fallback then incr p.p_flips;
          p.p_fallback := if next then 1.0 else 0.0
      | None -> ());
      a.fallback <- next;
      a.misses_in_window <- 0;
      a.probe_fresh <- 0;
      a.probe_shared <- 0
    end
  end;
  let partition_work =
    match t.config.Config.scheme with
    | Partitioner.Disjoint ->
        (* The DP evaluates every (first, last) segment plus the O(N^2 K)
           table fill; count the dominant term. *)
        n * n * min budget n
    | Partitioner.Random | Partitioner.One_to_one -> n
  in
  { install; segments; partition_work; rulegen_work = List.length rules }

let handle_miss t ~now ~pipeline flow =
  match Executor.execute pipeline flow with
  | Error e -> Error e
  | Ok traversal ->
      let o = install_traversal t ~now ~version:(Pipeline.version pipeline) traversal in
      let tuple_probes =
        Array.fold_left
          (fun acc s -> acc + s.Traversal.probes)
          0 traversal.Traversal.steps
      in
      Ok
        {
          traversal;
          install = o.install;
          segments = o.segments;
          work =
            {
              pipeline_lookups = Traversal.length traversal;
              tuple_probes;
              partition_work = o.partition_work;
              rulegen_work = o.rulegen_work;
            };
        }

let expire t ~now = Ltm_cache.expire t.cache ~now ~max_idle:t.config.Config.max_idle

let revalidate t pipeline = Ltm_cache.revalidate t.cache pipeline
