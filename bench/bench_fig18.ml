(* Fig. 18: dynamically arriving workloads.  Two 50K-flow workloads over the
   same PSC ruleset; the second arrives at t = 5 min.  Megaflow's hit rate
   collapses when the working set doubles; Gigaflow's coverage absorbs it. *)

open Common
module Ruleset = Gf_workload.Ruleset
module Pipebench = Gf_workload.Pipebench

let run () =
  section "Fig. 18: hit rate under dynamically arriving workloads (PSC, high)";
  let info = info "PSC" in
  let half = max 1 (unique_flows () / 2) in
  let ruleset =
    Ruleset.build ~combos:(combos ()) ~info ~seed:!seed ()
  in
  (* The two workloads draw from disjoint halves of the rule space: the
     arrival brings genuinely new flows, not more traffic to cached ones. *)
  let nc = Ruleset.combo_count ruleset in
  let flows1 =
    Ruleset.sample_flows ruleset
      ~combo_filter:(fun i -> i < nc / 2)
      ~seed:(!seed lxor 0xA1) ~locality:Ruleset.High ~n:half
  in
  let flows2 =
    Ruleset.sample_flows ruleset
      ~combo_filter:(fun i -> i >= nc / 2)
      ~seed:(!seed lxor 0xB2) ~locality:Ruleset.High ~n:half
  in
  let phase = 300.0 (* 5 minutes *) in
  (* Workload 1 is active for the whole experiment; workload 2 arrives at
     t = 5 min and stays — the paper's steady-state then step change. *)
  (* Long-lived flows keep the working set resident: pre-arrival the first
     workload roughly fills Megaflow; the arrival doubles demand. *)
  let t1 =
    Gf_workload.Trace.generate ~duration:(2.0 *. phase) ~mean_flow_size:32.0
      ~start_spread:0.9 ~lifetime_frac:0.5 ~seed:(!seed lxor 1) ~flows:flows1 ()
  in
  let t2 =
    Gf_workload.Trace.generate ~duration:phase ~mean_flow_size:32.0
      ~start_spread:0.9 ~lifetime_frac:0.5 ~seed:(!seed lxor 2) ~flows:flows2 ()
  in
  let trace = Gf_workload.Trace.concat t1 t2 ~offset:phase in
  let bucket = 30.0 in
  let buckets = int_of_float ((2.0 *. phase) /. bucket) in
  let series cfg =
    let dp = Datapath.create cfg (Ruleset.pipeline ruleset) in
    let hits = Array.make buckets 0 and totals = Array.make buckets 0 in
    let _ =
      Datapath.run
        ~on_packet:(fun i outcome _ ->
          let time = trace.Gf_workload.Trace.times.(i) in
          let b = min (buckets - 1) (int_of_float (time /. bucket)) in
          totals.(b) <- totals.(b) + 1;
          match outcome with
          | Datapath.Hw_hit -> hits.(b) <- hits.(b) + 1
          | Datapath.Sw_hit | Datapath.Slowpath -> ())
        dp trace
    in
    Array.init buckets (fun b ->
        if totals.(b) = 0 then nan else float_of_int hits.(b) /. float_of_int totals.(b))
  in
  say "  [fig18] megaflow timeline ...";
  let mf =
    series (Datapath.without_software (Datapath.with_max_idle 20.0 (mf_config ())))
  in
  say "  [fig18] gigaflow timeline ...";
  let gf =
    series (Datapath.without_software (Datapath.with_max_idle 20.0 (gf_config ())))
  in
  let t =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "Hit rate over time; second %d-flow workload arrives at t=%.0fs" half phase)
      [ "t (s)"; "Megaflow"; "Gigaflow" ]
  in
  for b = 0 to buckets - 1 do
    Tablefmt.add_row t
      [
        Printf.sprintf "%.0f" (float_of_int b *. bucket);
        (if Float.is_nan mf.(b) then "-" else Tablefmt.fmt_pct ~dp:1 mf.(b));
        (if Float.is_nan gf.(b) then "-" else Tablefmt.fmt_pct ~dp:1 gf.(b));
      ]
  done;
  Tablefmt.print t;
  (* Steady-state before vs after the arrival. *)
  let mean a lo hi =
    let xs = ref [] in
    for b = lo to hi do
      if not (Float.is_nan a.(b)) then xs := a.(b) :: !xs
    done;
    List.fold_left ( +. ) 0.0 !xs /. float_of_int (max 1 (List.length !xs))
  in
  let mid = buckets / 2 in
  note "Megaflow: %.1f%% before -> %.1f%% after the arrival"
    (100.0 *. mean mf (mid / 2) (mid - 1))
    (100.0 *. mean mf (mid + mid / 4) (buckets - 1));
  note "Gigaflow: %.1f%% before -> %.1f%% after"
    (100.0 *. mean gf (mid / 2) (mid - 1))
    (100.0 *. mean gf (mid + mid / 4) (buckets - 1));
  note "Paper: Megaflow drops 84%% -> 61%% at the arrival; Gigaflow sustains";
  note "~93%% thanks to its larger covered rule space."
