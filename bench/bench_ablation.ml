(* Ablations of the design choices DESIGN.md calls out:

   (a) minimal vs full (naive) dependency unwildcarding — the paper's
       section 4.2.3 discipline is what makes cache entries shareable;
   (b) the section 7 traffic-profile-guided fallback: adaptive Gigaflow
       under low locality vs plain Gigaflow and Megaflow. *)

open Common
module Ruleset = Gf_workload.Ruleset

let unwildcarding () =
  say "";
  say "  (a) dependency unwildcarding: minimal (paper 4.2.3) vs naive full union";
  let t =
    Tablefmt.create ~title:"PSC, high locality, Gigaflow 4x8K"
      [ "Unwildcarding"; "Hit rate"; "Peak entries"; "Mean sharing" ]
  in
  List.iter
    (fun (name, mode) ->
      say "  [ablation] unwildcarding=%s ..." name;
      (* A fresh workload per mode: traversal wildcards depend on it. *)
      let w =
        Gf_workload.Pipebench.make ~combos:(combos ()) ~unique_flows:(unique_flows ())
          ~info:(info "PSC") ~locality:Ruleset.High ~seed:(!seed lxor 0xAB1) ()
      in
      Pipeline.set_unwildcard (Gf_workload.Pipebench.pipeline w) mode;
      let r = run_datapath (Datapath.without_software (gf_config ())) w in
      Tablefmt.add_row t
        [
          name;
          Tablefmt.fmt_pct ~dp:2 (Metrics.hw_hit_rate r.metrics);
          Tablefmt.fmt_int r.peak_entries;
          Tablefmt.fmt_float ~dp:2 r.max_sharing;
        ])
    [ ("minimal", `Minimal); ("full union", `Full) ];
  Tablefmt.print t;
  note "Full-union wildcards make entries nearly flow-specific: sharing";
  note "collapses and the LTM tables thrash — minimal unwildcarding is";
  note "load-bearing for the whole design."

let adaptive () =
  say "";
  say "  (b) section 7 fallback: adaptive Gigaflow under low locality";
  let w = workload "PSC" Ruleset.Low in
  let t =
    Tablefmt.create ~title:"PSC, low locality (Gigaflow's worst case)"
      [ "Configuration"; "Hit rate"; "Misses" ]
  in
  let cell name cfg =
    say "  [ablation] %s ..." name;
    let r = run_datapath cfg w in
    Tablefmt.add_row t
      [
        name;
        Tablefmt.fmt_pct ~dp:2 (Metrics.hw_hit_rate r.metrics);
        Tablefmt.fmt_int (Metrics.hw_miss_count r.metrics);
      ]
  in
  cell "Megaflow (32K)" (Datapath.without_software (mf_config ()));
  cell "Gigaflow (4x8K)" (Datapath.without_software (gf_config ()));
  cell "Gigaflow + adaptive fallback"
    (Datapath.without_software
       (Datapath.emc_gf_sw
          ~gf:{ (scaled_gf ()) with Gf_core.Config.adaptive = true }
          ()));
  Tablefmt.print t;
  note "With the profile-guided fallback on, Gigaflow converts scarce-sharing";
  note "traffic into Megaflow-style whole-traversal entries (paper sec. 7),";
  note "recovering baseline behaviour while keeping sub-traversal caching";
  note "whenever probes detect sharing."

let run () =
  section "Ablations: unwildcarding discipline & adaptive fallback";
  unwildcarding ();
  adaptive ()
