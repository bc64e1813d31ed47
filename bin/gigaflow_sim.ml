(* gigaflow-sim: command-line driver for the Gigaflow reproduction.

   Subcommands:
     run        end-to-end datapath simulation on a generated workload
     pipelines  list the built-in vSwitch pipelines (paper Table 1)
     workload   generate a workload and print its statistics
     resources  FPGA occupancy estimate for a cache geometry *)

open Cmdliner
module Catalog = Gf_pipelines.Catalog
module Ruleset = Gf_workload.Ruleset
module Pipebench = Gf_workload.Pipebench
module Datapath = Gf_sim.Datapath
module Metrics = Gf_sim.Metrics
module Parallel = Gf_sim.Parallel
module Engine = Gf_engine.Engine
module Tablefmt = Gf_util.Tablefmt

let pipeline_arg =
  let doc = "Pipeline code: OFD, PSC, OLS, ANT or OTL." in
  Arg.(value & opt string "PSC" & info [ "p"; "pipeline" ] ~docv:"CODE" ~doc)

let locality_conv = Arg.enum [ ("high", Ruleset.High); ("low", Ruleset.Low) ]

let locality_arg =
  Arg.(
    value
    & opt locality_conv Ruleset.High
    & info [ "l"; "locality" ] ~docv:"LOC" ~doc:"Traffic locality: high or low.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let flows_arg =
  Arg.(value & opt int 100_000 & info [ "flows" ] ~docv:"N" ~doc:"Unique flows.")

let combos_arg =
  Arg.(value & opt int 131_072 & info [ "combos" ] ~docv:"N" ~doc:"Rule chains in the generated ruleset.")

let hierarchy_arg =
  let doc =
    Printf.sprintf "Cache hierarchy preset: %s."
      (String.concat ", " Datapath.preset_names)
  in
  Arg.(
    value
    & opt (Arg.enum (List.map (fun n -> (n, n)) Datapath.preset_names)) "emc_gf_sw"
    & info [ "H"; "hierarchy" ] ~docv:"NAME" ~doc)

let tables_arg =
  Arg.(value & opt int 4 & info [ "tables" ] ~docv:"K" ~doc:"Gigaflow LTM tables.")

let capacity_arg =
  Arg.(
    value & opt int 8192
    & info
        [ "capacity"; "table-capacity" ]
        ~docv:"N" ~doc:"Entries per Gigaflow table (Megaflow uses 4x this).")

let policy_conv =
  Arg.enum
    (List.map
       (fun p -> (Gf_cache.Evict.to_string p, p))
       Gf_cache.Evict.all)

let evict_policy_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "evict-policy" ] ~docv:"POLICY"
        ~doc:
          "Replacement policy under capacity pressure for $(b,every) cache \
           level: reject, lru, random or priority.  Unset keeps each level's \
           historical default (EMC: lru; Megaflow and Gigaflow LTM: reject).")

let evict_policy_level_arg =
  Arg.(
    value
    & opt_all (pair ~sep:':' string policy_conv) []
    & info [ "evict-policy-level" ] ~docv:"LEVEL:POLICY"
        ~doc:
          "Per-level replacement policy override, e.g. \
           $(b,--evict-policy-level gf:lru).  Level names are the metrics \
           names (emc, nic-mf, sw-mf, gf).  Repeatable; applied after \
           $(b,--evict-policy).")

let churn_arg =
  Arg.(
    value & flag
    & info [ "churn" ]
        ~doc:
          "Replace the CAIDA-style trace with a churn trace: a rotating \
           active-flow window that keeps the caches under sustained install \
           pressure (see $(b,--churn-active), $(b,--churn-turnover)).")

let churn_active_arg =
  Arg.(
    value & opt int 512
    & info [ "churn-active" ] ~docv:"N"
        ~doc:"Churn mode: concurrently active flows per epoch.")

let churn_turnover_arg =
  Arg.(
    value & opt float 0.25
    & info [ "churn-turnover" ] ~docv:"F"
        ~doc:"Churn mode: fraction of the active window replaced each epoch.")

let max_idle_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-idle" ] ~docv:"SECONDS"
        ~doc:
          "Idle-entry expiry threshold for every cache level (default: the \
           preset's).  Large values disable idle expiry, isolating the \
           effect of the replacement policy.")

let churn_epochs_arg =
  Arg.(
    value & opt int 30
    & info [ "churn-epochs" ] ~docv:"N" ~doc:"Churn mode: number of epochs.")

let admission_conv =
  let parse s =
    match Gf_offload.Heavy_hitter.policy_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print ppf p =
    Format.pp_print_string ppf (Gf_offload.Heavy_hitter.policy_to_string p)
  in
  Arg.conv (parse, print)

let admission_arg =
  Arg.(
    value
    & opt (some admission_conv) None
    & info [ "admission" ] ~docv:"POLICY"
        ~doc:
          "Hardware-slot admission policy: $(b,all) installs every slowpath            into every level (the non-hh presets' default); $(b,hh)[:K] gates            hardware installs on a top-K space-saving sketch (K defaults to            128) — cold flows stay in the software tier until they get hot,            and a periodic sweep demotes entries whose flows went cold (the            *_hh presets' default).")

let hh_threshold_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hh-threshold" ] ~docv:"N"
        ~doc:
          "Heavy-hitter admission: minimum guaranteed sketch count            (count minus overestimation error) before a flow earns a            hardware slot (default 4).")

let sw_level_arg =
  Arg.(
    value
    & opt (some (Arg.enum [ ("megaflow", `Megaflow); ("cuckoo", `Cuckoo) ])) None
    & info [ "sw-level" ] ~docv:"KIND"
        ~doc:
          "Software cache flavour: $(b,megaflow) (wildcard entries,            classifier search) or $(b,cuckoo) (exact-match 2-choice cuckoo            table, two probes per lookup — the cheap home for mice under            heavy-hitter admission).")

let sw_search_arg =
  Arg.(
    value
    & opt
        (some
           (Arg.enum
              [ ("tss", `Tss); ("nuevomatch", `Nuevomatch); ("linear", `Linear) ]))
        None
    & info [ "sw-search" ] ~docv:"ALGO"
        ~doc:
          "Software wildcard cache search algorithm: $(b,tss) (tuple-space            search, the default), $(b,nuevomatch) (learned range-matching            model) or $(b,linear).")

let trace_kind_arg =
  Arg.(
    value
    & opt
        (Arg.enum
           [
             ("caida", `Caida);
             ("churn", `Churn);
             ("elephant", `Elephant);
             ("drift", `Drift);
           ])
        `Caida
    & info [ "trace" ] ~docv:"KIND"
        ~doc:
          "Trace generator: $(b,caida) (heavy-tailed flow sizes, the            default), $(b,churn) (rotating active window; same as            $(b,--churn)), $(b,elephant) (a few elephants over a sea of            one-shot mice; see $(b,--elephants), $(b,--elephant-share)) or            $(b,drift) (Zipf popularity whose heavy-hitter identity set            rotates each epoch).")

let elephants_arg =
  Arg.(
    value & opt int 16
    & info [ "elephants" ] ~docv:"N"
        ~doc:"Elephant trace: number of elephant flows.")

let elephant_share_arg =
  Arg.(
    value & opt float 0.8
    & info [ "elephant-share" ] ~docv:"F"
        ~doc:"Elephant trace: fraction of packets carried by the elephants.")

let find_pipeline code =
  match Catalog.find code with
  | Some info -> info
  | None ->
      Printf.eprintf "unknown pipeline %S (try: OFD PSC OLS ANT OTL)\n" code;
      exit 2

let telemetry_out_arg =
  Arg.(
    value & opt string ""
    & info [ "telemetry-out" ] ~docv:"PATH"
        ~doc:
          "Write the telemetry JSONL stream (time-series samples + flight-recorder \
           events) to $(docv), and a Prometheus text snapshot next to it \
           ($(docv) with a .prom extension).  Empty (the default) disables \
           telemetry entirely.")

let sample_every_arg =
  Arg.(
    value & opt int 10_000
    & info [ "sample-every" ] ~docv:"N"
        ~doc:
          "Telemetry time-series cadence: snapshot per-level hit rate, occupancy \
           and latency quantiles every $(docv) packets (0 disables sampling).")

let trace_events_arg =
  Arg.(
    value & opt int 0
    & info [ "trace-events" ] ~docv:"N"
        ~doc:
          "Record every $(docv)-th datapath event \
           (hit/miss/install/evict/promote/revalidate/reject) in the telemetry \
           flight recorder; 0 (the default) disables event tracing.")

let engine_arg =
  Arg.(
    value
    & opt (Arg.enum [ ("walker", `Walker); ("batched", `Batched) ]) `Walker
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Replay engine: $(b,walker) (the default per-packet hierarchy \
           walker) or $(b,batched) (the streaming engine: packet batches \
           over SPSC rings into long-lived worker domains, with per-batch \
           amortisation of telemetry and expiry checks).")

let batch_size_arg =
  Arg.(
    value & opt int 1024
    & info [ "batch-size" ] ~docv:"N"
        ~doc:"Batched engine: packets per batch (ignored by the walker).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"D"
        ~doc:
          "Batched engine: worker domains; flows are RSS-sharded across \
           them exactly like $(b,Parallel.replay), so merged metrics are \
           independent of timing (ignored by the walker).")

let prom_path jsonl_path = Filename.remove_extension jsonl_path ^ ".prom"

(* The workload and cache hierarchy that [run] and [profile] replay,
   built from their shared flags. *)
type setup = {
  info : Catalog.info;
  locality : Ruleset.locality;
  seed : int;
  flows : int;
  combos : int;
  w : Pipebench.workload;
  cfg : Datapath.config;
  engine : [ `Walker | `Batched ];
  batch_size : int;
  domains : int;
}

(* A thunk, so the workload is built only once every flag has parsed. *)
let setup_term =
  let setup code locality seed flows combos hierarchy tables capacity policy
      level_policies max_idle churn churn_active churn_turnover churn_epochs
      trace_kind elephants elephant_share admission hh_threshold sw_level
      sw_search engine batch_size domains () =
    let info = find_pipeline code in
    Printf.printf "Building workload: %s, %s locality, %d flows...\n%!" info.Catalog.code
      (Ruleset.locality_name locality) flows;
    let trace_kind = if churn then `Churn else trace_kind in
    let w =
      match trace_kind with
      | `Churn ->
          Pipebench.make_churn ~combos ~unique_flows:flows ~active:churn_active
            ~turnover:churn_turnover ~epochs:churn_epochs ~info ~locality ~seed ()
      | `Elephant ->
          Pipebench.make_elephant ~combos ~unique_flows:flows ~elephants
            ~elephant_share ~info ~locality ~seed ()
      | `Drift -> Pipebench.make_drift ~combos ~unique_flows:flows ~info ~locality ~seed ()
      | `Caida -> Pipebench.make ~combos ~unique_flows:flows ~info ~locality ~seed ()
    in
    (* Gigaflow-based presets take the LTM geometry; Megaflow-based ones get
       the same total entry budget (tables x capacity) in one table.  Each
       flag given overrides the preset's default. *)
    let given with_ v cfg = Option.fold ~none:cfg ~some:(fun v -> with_ v cfg) v in
    let cfg =
      Option.get
        (Datapath.preset
           ~gf:(Gf_core.Config.v ~tables ~table_capacity:capacity ())
           ~mf_capacity:(tables * capacity) hierarchy)
      |> given Datapath.with_max_idle max_idle
      |> given Datapath.with_sw_search sw_search
      |> given Datapath.with_admission admission
      |> given Datapath.with_policy policy
    in
    let cfg =
      List.fold_left
        (fun cfg (level, p) -> Datapath.with_level_policy ~level p cfg)
        cfg level_policies
    in
    let cfg =
      match sw_level with Some k -> Datapath.with_sw_level k cfg | None -> cfg
    in
    let cfg =
      match hh_threshold with
      | Some th ->
          Datapath.with_admission
            (Gf_offload.Heavy_hitter.policy_with_threshold cfg.Datapath.admission th)
            cfg
      | None -> cfg
    in
    { info; locality; seed; flows; combos; w; cfg; engine; batch_size; domains }
  in
  Term.(
    const setup $ pipeline_arg $ locality_arg $ seed_arg $ flows_arg $ combos_arg
    $ hierarchy_arg $ tables_arg $ capacity_arg $ evict_policy_arg
    $ evict_policy_level_arg $ max_idle_arg $ churn_arg $ churn_active_arg
    $ churn_turnover_arg $ churn_epochs_arg $ trace_kind_arg $ elephants_arg
    $ elephant_share_arg $ admission_arg $ hh_threshold_arg $ sw_level_arg
    $ sw_search_arg $ engine_arg $ batch_size_arg $ domains_arg)

let run_cmd =
  let run setup telemetry_out sample_every trace_events =
    let { info; locality; seed; flows; combos; w; cfg; engine; batch_size; domains } =
      setup ()
    in
    let tel_config =
      if String.equal telemetry_out "" then None
      else
        Some
          {
            Gf_telemetry.Telemetry.sample_every;
            event_capacity = 4096;
            event_sample_every = trace_events;
            trace_sample_every = 0;
          }
    in
    let print_metrics (m : Metrics.t) =
      let t = Tablefmt.create [ "Metric"; "Value" ] in
      let add k v = Tablefmt.add_row t [ k; v ] in
      add "hierarchy" cfg.Datapath.name;
      add "packets" (Tablefmt.fmt_int m.Metrics.packets);
      add "SmartNIC hit rate" (Tablefmt.fmt_pct (Metrics.hw_hit_rate m));
      add "SmartNIC misses" (Tablefmt.fmt_int (Metrics.hw_miss_count m));
      add "software-cache hits" (Tablefmt.fmt_int m.Metrics.sw_hits);
      add "slowpath executions" (Tablefmt.fmt_int m.Metrics.slowpaths);
      add "entries (peak)" (Tablefmt.fmt_int m.Metrics.hw_entries_peak);
      add "installs" (Tablefmt.fmt_int m.Metrics.hw_installs);
      add "shared sub-traversals" (Tablefmt.fmt_int m.Metrics.hw_shared);
      add "pressure evictions" (Tablefmt.fmt_int m.Metrics.hw_pressure_evictions);
      add "admission"
        (Gf_offload.Heavy_hitter.policy_to_string cfg.Datapath.admission);
      if m.Metrics.hw_deferred > 0 then
        add "deferred installs" (Tablefmt.fmt_int m.Metrics.hw_deferred);
      if m.Metrics.hw_demotions > 0 then
        add "admission demotions" (Tablefmt.fmt_int m.Metrics.hw_demotions);
      add "mean latency" (Printf.sprintf "%.2f us" (Metrics.mean_latency_us m));
      Tablefmt.print t;
      Printf.printf "Per-level breakdown:\n";
      Format.printf "%a%!" Metrics.pp_levels m
    in
    let write_telemetry tel =
      let meta =
        Gf_telemetry.Schema.params ~pipeline:info.Catalog.code
          ~locality:(Ruleset.locality_name locality) ~hierarchy:cfg.Datapath.name
          ~seed ~flows ~combos ()
      in
      let oc = open_out telemetry_out in
      Gf_telemetry.Telemetry.write_jsonl ~meta oc tel;
      close_out oc;
      let prom = prom_path telemetry_out in
      let oc = open_out prom in
      output_string oc (Gf_telemetry.Telemetry.prometheus tel);
      close_out oc;
      Printf.printf "Telemetry: %s (JSONL), %s (Prometheus snapshot)\n"
        telemetry_out prom
    in
    match engine with
    | `Batched ->
        Printf.printf
          "Replaying %d packets (batched engine, %d domain%s, batch %d)...\n%!"
          (Gf_workload.Trace.packet_count w.Pipebench.trace)
          domains
          (if domains = 1 then "" else "s")
          batch_size;
        let r =
          Engine.replay ?telemetry:tel_config ~batch_size ~domains ~cfg
            (Pipebench.pipeline w)
            (Gf_workload.Trace.stream_of_trace w.Pipebench.trace)
        in
        print_metrics r.Parallel.merged;
        Printf.printf "Engine wall time: %.3f s (%s pkt/s over %d domain%s)\n"
          r.Parallel.wall_seconds
          (Tablefmt.fmt_si
             (float_of_int r.Parallel.merged.Metrics.packets
             /. Float.max 1e-9 r.Parallel.wall_seconds))
          r.Parallel.domains
          (if r.Parallel.domains = 1 then "" else "s");
        Option.iter write_telemetry r.Parallel.telemetry
    | `Walker ->
        let telemetry =
          Option.map
            (fun config -> Gf_telemetry.Telemetry.create ~config ())
            tel_config
        in
        let dp = Datapath.create ?telemetry cfg (Pipebench.pipeline w) in
        Printf.printf "Replaying %d packets...\n%!"
          (Gf_workload.Trace.packet_count w.Pipebench.trace);
        (* Sample Gigaflow coverage/sharing periodically: the interesting
           values are at steady state, not after the final idle sweep. *)
        let entry_tag = Gf_pipeline.Pipeline.entry (Pipebench.pipeline w) in
        let max_cov = ref 0.0 and max_share = ref 0.0 and count = ref 0 in
        let sample () =
          match Datapath.gigaflow dp with
          | Some gf ->
              let cache = Gf_core.Gigaflow.cache gf in
              let c = Gf_core.Coverage.count cache ~entry_tag in
              if c > !max_cov then max_cov := c;
              let s = Gf_core.Ltm_cache.mean_sharing cache in
              if (not (Float.is_nan s)) && s > !max_share then max_share := s
          | None -> ()
        in
        let m =
          Datapath.run
            ~on_packet:(fun _ _ _ ->
              incr count;
              if !count mod 10_000 = 0 then sample ())
            dp w.Pipebench.trace
        in
        sample ();
        print_metrics m;
        (match Datapath.gigaflow dp with
        | Some _ ->
            Printf.printf "Rule-space coverage (peak): %s\n"
              (Tablefmt.fmt_si !max_cov);
            Printf.printf "Mean sub-traversal sharing (peak): %.2f\n" !max_share
        | None -> ());
        (match Datapath.heavy_hitter dp with
        | Some hh ->
            Printf.printf "Top heavy hitters (sketch count / overestimation):\n";
            List.iter
              (fun (f, c, e) ->
                Printf.printf "  %-40s count=%d err=%d\n" (Gf_flow.Flow.to_string f)
                  c e)
              (Gf_offload.Heavy_hitter.top hh ~n:8)
        | None -> ());
        Option.iter write_telemetry telemetry
  in
  let term =
    Term.(
      const run $ setup_term $ telemetry_out_arg $ sample_every_arg
      $ trace_events_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run an end-to-end datapath simulation.") term

(* Sub-traversal tracing profiler: replay a workload with the traversal
   tracer on, then render the pulled spans as a folded-stack flamegraph,
   a chrome://tracing timeline, profile JSONL and a Prometheus snapshot,
   plus a per-(level, cause) miss-attribution table on stdout read from
   the run's Metrics.  Every miss is charged to exactly one cause, so the
   command exits non-zero if the cause counts fail to reconcile with the
   miss counters. *)
let profile_cmd =
  let module Telemetry = Gf_telemetry.Telemetry in
  let module Tracer = Gf_telemetry.Tracer in
  let module Attribution = Gf_telemetry.Attribution in
  let sample_conv =
    let parse s =
      let v =
        match String.index_opt s '/' with
        | Some i when String.sub s 0 i = "1" ->
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        | Some _ -> None
        | None -> int_of_string_opt s
      in
      match v with
      | Some n when n >= 1 -> Ok n
      | Some _ | None ->
          Error
            (`Msg (Printf.sprintf "invalid sampling cadence %S (use N or 1/N)" s))
    in
    Arg.conv (parse, fun ppf n -> Format.fprintf ppf "1/%d" n)
  in
  let sample_arg =
    Arg.(
      value & opt sample_conv 256
      & info [ "sample" ] ~docv:"1/N"
          ~doc:
            "Trace every $(i,N)-th packet (accepts $(b,1/N) or plain \
             $(b,N); default 1/256).  The miss-cause counts come from the \
             run's metrics and are exact at any cadence — sampling only \
             thins the span streams behind the flamegraph and timeline.")
  in
  let out_arg =
    Arg.(
      value & opt string "profile"
      & info [ "o"; "out" ] ~docv:"PREFIX"
          ~doc:
            "Output prefix: writes $(docv).folded (flamegraph.pl / \
             speedscope), $(docv).trace.json (chrome://tracing / \
             Perfetto), $(docv).jsonl (profile lines) and $(docv).prom \
             (Prometheus snapshot).")
  in
  let run setup sample out =
    let { info; locality; seed; w; cfg; engine; batch_size; domains; _ } =
      setup ()
    in
    let tel_config =
      {
        Telemetry.sample_every = 10_000;
        event_capacity = 4096;
        event_sample_every = 0;
        trace_sample_every = sample;
      }
    in
    let metrics, tel =
      match engine with
      | `Batched ->
          Printf.printf
            "Profiling %d packets (batched engine, %d domain%s, 1/%d sampled)...\n%!"
            (Gf_workload.Trace.packet_count w.Pipebench.trace)
            domains
            (if domains = 1 then "" else "s")
            sample;
          let r =
            Engine.replay ~telemetry:tel_config ~batch_size ~domains ~cfg
              (Pipebench.pipeline w)
              (Gf_workload.Trace.stream_of_trace w.Pipebench.trace)
          in
          (r.Parallel.merged, Option.get r.Parallel.telemetry)
      | `Walker ->
          Printf.printf "Profiling %d packets (walker, 1/%d sampled)...\n%!"
            (Gf_workload.Trace.packet_count w.Pipebench.trace)
            sample;
          let tel = Telemetry.create ~config:tel_config () in
          let dp = Datapath.create ~telemetry:tel cfg (Pipebench.pipeline w) in
          (Datapath.run dp w.Pipebench.trace, tel)
    in
    let tr =
      match Telemetry.tracer tel with
      | Some tr -> tr
      | None ->
          Printf.eprintf "profile: tracer never attached (internal error)\n";
          exit 1
    in
    let attr = Tracer.attribution tr in
    let total_misses =
      List.fold_left
        (fun acc lm -> acc + lm.Metrics.misses)
        0 (Metrics.levels metrics)
    in
    let causes = Metrics.miss_causes metrics in
    let write path contents =
      let oc = open_out path in
      output_string oc contents;
      close_out oc
    in
    write (out ^ ".folded") (Attribution.folded attr);
    write (out ^ ".trace.json")
      (Attribution.chrome_json ~us_of_cycles:Gf_nic.Latency.us_of_cycles attr);
    let meta =
      Gf_telemetry.Schema.params ~pipeline:info.Catalog.code
        ~locality:(Ruleset.locality_name locality) ~hierarchy:cfg.Datapath.name
        ~engine:(match engine with `Walker -> "walker" | `Batched -> "batched")
        ~seed ~sample_every:sample ()
    in
    let oc = open_out (out ^ ".jsonl") in
    Attribution.write_jsonl ~meta ~causes ~total_misses oc attr;
    close_out oc;
    write (out ^ ".prom") (Telemetry.prometheus tel);
    Printf.printf "Sampled %s of %s packets (%s spans)\n"
      (Tablefmt.fmt_int (Attribution.sampled_packets attr))
      (Tablefmt.fmt_int metrics.Metrics.packets)
      (Tablefmt.fmt_int (Attribution.spans attr));
    let t = Tablefmt.create [ "Level"; "Miss cause"; "Misses" ] in
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) causes
    |> List.filteri (fun i _ -> i < 12)
    |> List.iter (fun (level, cause, n) ->
           Tablefmt.add_row t [ level; cause; Tablefmt.fmt_int n ]);
    Tablefmt.print t;
    let census = List.fold_left (fun acc (_, _, n) -> acc + n) 0 causes in
    let reconciled = census = total_misses in
    Printf.printf "Miss census: %s of %s metrics misses attributed (%s)\n"
      (Tablefmt.fmt_int census)
      (Tablefmt.fmt_int total_misses)
      (if reconciled then "reconciled" else "MISMATCH");
    Printf.printf "Profile: %s.folded, %s.trace.json, %s.jsonl, %s.prom\n" out
      out out out;
    if not reconciled then exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Replay a workload with sub-traversal tracing on and emit \
          flamegraph, chrome trace, JSONL and Prometheus profile outputs \
          with per-cause miss attribution.")
    Term.(const run $ setup_term $ sample_arg $ out_arg)

(* Validate a telemetry JSONL file and/or a chrome://tracing JSON file
   against Gf_telemetry.Schema.  Exits non-zero on the first violation —
   check.sh uses this as the telemetry smoke gate. *)
let telemetry_check_cmd =
  let module Schema = Gf_telemetry.Schema in
  let check file chrome =
    let read input path =
      try In_channel.with_open_bin path input
      with Sys_error e ->
        Printf.eprintf "telemetry-check: %s\n" e;
        exit 1
    in
    Option.iter
      (fun file ->
        match Schema.check_jsonl (read In_channel.input_lines file) with
        | Ok s -> Printf.printf "%s: OK (%s)\n" file (Schema.describe s)
        | Error (line, msg) ->
            Printf.eprintf "telemetry-check: line %d: %s\n" line msg;
            exit 1)
      file;
    Option.iter
      (fun chrome ->
        match Schema.check_chrome (read In_channel.input_all chrome) with
        | Ok n -> Printf.printf "%s: OK (%d trace events)\n" chrome n
        | Error msg ->
            Printf.eprintf "telemetry-check: %s: %s\n" chrome msg;
            exit 1)
      chrome;
    if file = None && chrome = None then begin
      Printf.eprintf
        "telemetry-check: nothing to check (pass FILE and/or --chrome)\n";
      exit 2
    end
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Telemetry JSONL file to validate.")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"JSON"
          ~doc:
            "Also validate a chrome://tracing JSON file (as written by \
             $(b,gigaflow-sim profile)): a $(i,traceEvents) array whose \
             events carry name/ph/ts/dur/pid/tid.")
  in
  Cmd.v
    (Cmd.info "telemetry-check"
       ~doc:"Validate a telemetry JSONL file (parseability + required series).")
    Term.(const check $ file_arg $ chrome_arg)

(* Fixed-rate SLO load test (packetblaster-style): sustained offered load
   through a single-server queue in front of the datapath, p50/p99/p99.9
   sojourn + drop-rate + hardware-hit-rate objectives per measurement
   window, a machine-readable JSONL report, and --gate turning SLO
   violations into a non-zero exit for CI. *)
let loadtest_cmd =
  let module Loadtest = Gf_engine.Loadtest in
  let module Controller = Gf_control.Controller in
  let rate_arg =
    Arg.(
      value & opt float 1e6
      & info [ "rate" ] ~docv:"PPS" ~doc:"Offered load, packets per second.")
  in
  let warmup_arg =
    Arg.(
      value & opt int 50_000
      & info [ "warmup" ] ~docv:"N"
          ~doc:"Offered packets before measurement starts (caches converge).")
  in
  let window_arg =
    Arg.(
      value & opt int 100_000
      & info [ "window" ] ~docv:"N" ~doc:"Offered packets per measurement window.")
  in
  let windows_arg =
    Arg.(
      value & opt int 5
      & info [ "windows" ] ~docv:"K" ~doc:"Measurement windows after warmup.")
  in
  let queue_budget_arg =
    Arg.(
      value & opt float 500.0
      & info [ "queue-budget" ] ~docv:"US"
          ~doc:
            "Tail-drop threshold: a packet whose queueing delay would exceed \
             $(docv) microseconds is dropped before reaching the datapath.")
  in
  let zipf_conv =
    let parse s =
      match float_of_string_opt s with
      | Some z when z >= 0.0 -> Ok z
      | Some _ | None ->
          Error (`Msg (Printf.sprintf "invalid Zipf exponent %S (a number >= 0)" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let zipf_arg =
    Arg.(
      value & opt zipf_conv 1.1
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Zipf skew of the steady-state traffic over the flow population \
             ($(docv) >= 0).")
  in
  let slo_term =
    let bound name docv default doc =
      Arg.(value & opt float default & info [ name ] ~docv ~doc:("SLO: " ^ doc))
    in
    let slo slo_p50_us slo_p99_us slo_p999_us slo_drop_rate slo_hw_hit_rate =
      { Loadtest.slo_p50_us; slo_p99_us; slo_p999_us; slo_drop_rate; slo_hw_hit_rate }
    in
    let d = Loadtest.default_slo in
    Term.(
      const slo
      $ bound "slo-p50" "US" d.Loadtest.slo_p50_us "sojourn median bound."
      $ bound "slo-p99" "US" d.Loadtest.slo_p99_us "sojourn p99 bound."
      $ bound "slo-p999" "US" d.Loadtest.slo_p999_us "sojourn p99.9 bound."
      $ bound "slo-drop-rate" "F" d.Loadtest.slo_drop_rate
          "dropped/offered bound per window."
      $ bound "slo-hit-rate" "F" d.Loadtest.slo_hw_hit_rate
          "hardware hits / processed floor per window.")
  in
  let out_arg =
    Arg.(
      value & opt string ""
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:
            "Write the JSONL report (a meta line, one line per window, any \
             controller actions and a summary line) to $(docv).")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:"Exit non-zero when any measurement window violates the SLO.")
  in
  let trace_arg =
    Arg.(
      value & opt string "steady"
      & info [ "trace" ] ~docv:"KIND"
          ~doc:
            "Traffic shape: $(b,steady) (stable Zipf working set) or \
             $(b,drift) (the rank->flow mapping rotates each epoch, sliding \
             the heavy-hitter identity set).")
  in
  let epochs_arg =
    Arg.(
      value & opt int 8
      & info [ "epochs" ] ~docv:"E"
          ~doc:"Drift epochs across the run (with --trace drift).")
  in
  let drift_arg =
    Arg.(
      value & opt int 64
      & info [ "drift" ] ~docv:"D"
          ~doc:"Flows the mapping rotates by per epoch (with --trace drift).")
  in
  let controller_arg =
    Arg.(
      value & opt string ""
      & info [ "controller" ] ~docv:"SPEC"
          ~doc:
            "Attach the adaptive SLO controller: $(b,slo) optionally followed \
             by comma-separated key=value overrides (min-threshold, max-k, \
             max-sw-capacity, cooldown, max-actions).  The controller observes \
             each window close (plus the warmup) and retunes admission, \
             eviction policy and software capacity within bounds.")
  in
  let run code locality seed flows combos hierarchy tables capacity rate warmup
      window windows queue_budget zipf trace_kind epochs drift controller_spec slo
      out gate =
    let info = find_pipeline code in
    let w = Pipebench.make ~combos ~unique_flows:flows ~info ~locality ~seed () in
    let cfg =
      Option.get
        (Datapath.preset
           ~gf:(Gf_core.Config.v ~tables ~table_capacity:capacity ())
           ~mf_capacity:(tables * capacity) hierarchy)
    in
    let packets = warmup + (windows * window) in
    let stream =
      match trace_kind with
      | "steady" ->
          Gf_workload.Trace.steady ~zipf_s:zipf ~packets ~seed:(seed + 1)
            ~flows:w.Pipebench.flows ()
      | "drift" ->
          let per_epoch = (packets + epochs - 1) / epochs in
          Gf_workload.Trace.stream_of_trace
            (Gf_workload.Trace.drifting_skew ~epochs ~zipf_s:zipf ~drift
               ~packets_per_epoch:per_epoch ~seed:(seed + 1)
               ~flows:w.Pipebench.flows ())
      | other ->
          Printf.eprintf "unknown --trace %S (expected steady or drift)\n" other;
          exit 2
    in
    let spec, controller =
      if controller_spec = "" then (None, None)
      else
        match Controller.spec_of_string controller_spec with
        | Error e ->
            Printf.eprintf "bad --controller spec: %s\n" e;
            exit 2
        | Ok spec -> (Some spec, Some (Controller.create ~spec ()))
    in
    Printf.printf
      "Loadtest: %s on %s, %s pkt/s offered, %d warmup + %d x %d measured...\n%!"
      cfg.Datapath.name info.Catalog.code (Tablefmt.fmt_si rate) warmup windows
      window;
    let r =
      Loadtest.run ~queue_budget_us:queue_budget ~warmup ~window ~windows
        ?controller:(Option.map Controller.on_window controller)
        ~rate ~slo cfg (Pipebench.pipeline w) stream
    in
    let t =
      Tablefmt.create
        [ "Window"; "Offered"; "Dropped"; "p50 us"; "p99 us"; "p99.9 us";
          "HW hit"; "SLO" ]
    in
    List.iter
      (fun (wr : Loadtest.window) ->
        Tablefmt.add_row t
          [
            string_of_int wr.Loadtest.w_index;
            Tablefmt.fmt_int wr.Loadtest.w_offered;
            Tablefmt.fmt_int wr.Loadtest.w_dropped;
            Printf.sprintf "%.2f" wr.Loadtest.w_p50_us;
            Printf.sprintf "%.2f" wr.Loadtest.w_p99_us;
            Printf.sprintf "%.2f" wr.Loadtest.w_p999_us;
            Tablefmt.fmt_pct wr.Loadtest.w_hw_hit_rate;
            (if wr.Loadtest.w_violations = [] then "ok"
             else String.concat "; " wr.Loadtest.w_violations);
          ])
      r.Loadtest.windows;
    Tablefmt.print t;
    (match controller with
    | Some c when Controller.actions c <> [] ->
        let at =
          Tablefmt.create [ "Window"; "Knob"; "Level"; "From"; "To"; "Why" ]
        in
        List.iter
          (fun (a : Controller.action) ->
            Tablefmt.add_row at
              [
                (if a.Controller.act_window < 0 then "warmup"
                 else string_of_int a.Controller.act_window);
                a.Controller.act_knob;
                a.Controller.act_level;
                a.Controller.act_from;
                a.Controller.act_to;
                a.Controller.act_reason;
              ])
          (Controller.actions c);
        Printf.printf "Controller actions:\n";
        Tablefmt.print at
    | Some _ -> Printf.printf "Controller actions: none (all windows clean)\n"
    | None -> ());
    Printf.printf "SLO gate: %s (%d/%d windows clean, %d dropped of %d offered)\n"
      (if r.Loadtest.pass then "PASS" else "FAIL")
      (List.length
         (List.filter
            (fun (wr : Loadtest.window) -> wr.Loadtest.w_violations = [])
            r.Loadtest.windows))
      (List.length r.Loadtest.windows)
      r.Loadtest.total_dropped r.Loadtest.total_offered;
    if out <> "" then begin
      let meta =
        Gf_telemetry.Schema.params ~pipeline:info.Catalog.code
          ~hierarchy:cfg.Datapath.name ~seed ~flows ~zipf_s:zipf ~trace:trace_kind
          ?controller:(Option.map Controller.spec_to_string spec)
          ()
      in
      let extra =
        match controller with
        | None -> []
        | Some c -> List.map Controller.action_json (Controller.actions c)
      in
      let oc = open_out out in
      Loadtest.write_jsonl ~meta ~extra oc r;
      close_out oc;
      Printf.printf "Loadtest JSONL: %s\n" out
    end;
    if gate && not r.Loadtest.pass then exit 1
  in
  let term =
    Term.(
      const run $ pipeline_arg $ locality_arg $ seed_arg $ flows_arg $ combos_arg
      $ hierarchy_arg $ tables_arg $ capacity_arg $ rate_arg $ warmup_arg
      $ window_arg $ windows_arg $ queue_budget_arg $ zipf_arg $ trace_arg
      $ epochs_arg $ drift_arg $ controller_arg $ slo_term $ out_arg $ gate_arg)
  in
  Cmd.v
    (Cmd.info "loadtest"
       ~doc:
         "Offer a sustained fixed-rate load and judge latency/drop/hit-rate \
          SLOs per measurement window.")
    term

let pipelines_cmd =
  let show () =
    let t = Tablefmt.create [ "Code"; "Tables"; "Traversals"; "Description" ] in
    List.iter
      (fun info ->
        Tablefmt.add_row t
          [
            info.Catalog.code;
            string_of_int (Catalog.table_count info);
            string_of_int (Catalog.traversal_count info);
            info.Catalog.description;
          ])
      Catalog.all;
    Tablefmt.print t
  in
  Cmd.v
    (Cmd.info "pipelines" ~doc:"List the built-in vSwitch pipelines (paper Table 1).")
    Term.(const show $ const ())

let workload_cmd =
  let show code locality seed flows combos =
    let info = find_pipeline code in
    let w = Pipebench.make ~combos ~unique_flows:flows ~info ~locality ~seed () in
    let t = Tablefmt.create [ "Property"; "Value" ] in
    Tablefmt.add_row t [ "pipeline"; info.Catalog.code ];
    Tablefmt.add_row t [ "locality"; Ruleset.locality_name locality ];
    Tablefmt.add_row t [ "rule chains (combos)"; Tablefmt.fmt_int (Ruleset.combo_count w.Pipebench.ruleset) ];
    Tablefmt.add_row t
      [ "pipeline rules installed"; Tablefmt.fmt_int (Ruleset.rule_count w.Pipebench.ruleset) ];
    Tablefmt.add_row t [ "unique flows"; Tablefmt.fmt_int (Array.length w.Pipebench.flows) ];
    Tablefmt.add_row t
      [ "trace packets"; Tablefmt.fmt_int (Gf_workload.Trace.packet_count w.Pipebench.trace) ];
    Tablefmt.print t
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a Pipebench workload and print statistics.")
    Term.(const show $ pipeline_arg $ locality_arg $ seed_arg $ flows_arg $ combos_arg)

let resources_cmd =
  let show tables capacity =
    let e = Gf_nic.Resources.estimate ~tables ~table_capacity:capacity in
    Printf.printf "Gigaflow %dx%d on an Alveo U250: %s%s\n" tables capacity
      (Format.asprintf "%a" Gf_nic.Resources.pp e)
      (if Gf_nic.Resources.fits e then "" else "  [EXCEEDS BUDGET]")
  in
  Cmd.v
    (Cmd.info "resources" ~doc:"Estimate FPGA occupancy for a cache geometry.")
    Term.(const show $ tables_arg $ capacity_arg)

let export_p4_cmd =
  let show tables capacity =
    print_string (Gf_nic.P4gen.emit ~tables ~table_capacity:capacity)
  in
  Cmd.v
    (Cmd.info "export-p4"
       ~doc:"Emit the P4_16 LTM pipeline for a cache geometry (paper Fig. 6).")
    Term.(const show $ tables_arg $ capacity_arg)

let dump_flows_cmd =
  let show code seed combos =
    let info = find_pipeline code in
    let rs = Ruleset.build ~combos ~info ~seed () in
    print_string (Gf_pipeline.Ofp_text.dump_pipeline (Ruleset.pipeline rs))
  in
  Cmd.v
    (Cmd.info "dump-flows"
       ~doc:"Generate a ruleset and dump it in ovs-ofctl flow syntax.")
    Term.(const show $ pipeline_arg $ seed_arg $ combos_arg)

let export_trace_cmd =
  let show code locality seed flows combos path =
    let info = find_pipeline code in
    let w = Pipebench.make ~combos ~unique_flows:flows ~info ~locality ~seed () in
    Gf_workload.Serial.save ~path
      (Gf_workload.Serial.trace_to_string w.Pipebench.trace);
    Printf.printf "wrote %d packets to %s\n"
      (Gf_workload.Trace.packet_count w.Pipebench.trace)
      path
  in
  let path_arg =
    Arg.(value & opt string "trace.txt" & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export-trace" ~doc:"Generate a workload and save its packet trace.")
    Term.(const show $ pipeline_arg $ locality_arg $ seed_arg $ flows_arg $ combos_arg $ path_arg)

let () =
  let doc = "Gigaflow: pipeline-aware sub-traversal caching (ASPLOS'25 reproduction)" in
  let info = Cmd.info "gigaflow-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; profile_cmd; loadtest_cmd; pipelines_cmd; workload_cmd;
            resources_cmd; export_p4_cmd; dump_flows_cmd; export_trace_cmd;
            telemetry_check_cmd;
          ]))
