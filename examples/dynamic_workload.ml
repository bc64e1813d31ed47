(* Dynamic workloads: a second wave of flows arrives mid-run (the paper's
   Fig. 18 scenario, scaled down).  Megaflow must evict and re-learn;
   Gigaflow's cross-product coverage absorbs much of the new traffic.

   Run with:  dune exec examples/dynamic_workload.exe *)

module Catalog = Gf_pipelines.Catalog
module Ruleset = Gf_workload.Ruleset
module Trace = Gf_workload.Trace
module Datapath = Gf_sim.Datapath
module Tablefmt = Gf_util.Tablefmt

let () =
  let info = Option.get (Catalog.find "PSC") in
  let rs = Ruleset.build ~combos:32_768 ~info ~seed:21 () in
  let nc = Ruleset.combo_count rs in
  let half = 10_000 in
  (* Two flow populations over disjoint halves of the rule space. *)
  let flows1 =
    Ruleset.sample_flows rs ~combo_filter:(fun i -> i < nc / 2) ~seed:31
      ~locality:Ruleset.High ~n:half
  in
  let flows2 =
    Ruleset.sample_flows rs ~combo_filter:(fun i -> i >= nc / 2) ~seed:32
      ~locality:Ruleset.High ~n:half
  in
  let phase = 60.0 in
  let t1 =
    Trace.generate ~duration:(2.0 *. phase) ~mean_flow_size:24.0 ~start_spread:0.9
      ~lifetime_frac:0.4 ~seed:41 ~flows:flows1 ()
  in
  let t2 =
    Trace.generate ~duration:phase ~mean_flow_size:24.0 ~start_spread:0.9
      ~lifetime_frac:0.4 ~seed:42 ~flows:flows2 ()
  in
  let trace = Trace.concat t1 t2 ~offset:phase in
  Printf.printf "Trace: %d packets over %.0f s; new workload arrives at t=%.0f s\n\n%!"
    (Trace.packet_count trace) (2.0 *. phase) phase;

  let bucket = 10.0 in
  let buckets = int_of_float (2.0 *. phase /. bucket) in
  let series name cfg =
    Printf.printf "Running %s...\n%!" name;
    let dp = Datapath.create cfg (Ruleset.pipeline rs) in
    let hits = Array.make buckets 0 and totals = Array.make buckets 0 in
    ignore
      (Datapath.run
         ~on_packet:(fun i outcome _ ->
           let b = min (buckets - 1) (int_of_float (trace.Trace.times.(i) /. bucket)) in
           totals.(b) <- totals.(b) + 1;
           match outcome with
           | Datapath.Hw_hit -> hits.(b) <- hits.(b) + 1
           | Datapath.Sw_hit | Datapath.Slowpath -> ())
         dp trace);
    Array.init buckets (fun b ->
        if totals.(b) = 0 then nan else float_of_int hits.(b) /. float_of_int totals.(b))
  in
  let mf =
    series "Megaflow (6K)"
      (Datapath.without_software (Datapath.emc_mf_sw ~mf_capacity:6144 ()))
  in
  let gf =
    series "Gigaflow (4x1.5K)"
      (Datapath.without_software
         (Datapath.emc_gf_sw ~gf:(Gf_core.Config.v ~tables:4 ~table_capacity:1536 ()) ()))
  in
  print_newline ();
  let t = Tablefmt.create [ "t (s)"; "Megaflow hit rate"; "Gigaflow hit rate" ] in
  for b = 0 to buckets - 1 do
    let cell a = if Float.is_nan a then "-" else Tablefmt.fmt_pct ~dp:1 a in
    Tablefmt.add_row t
      [ Printf.sprintf "%.0f" (float_of_int b *. bucket); cell mf.(b); cell gf.(b) ]
  done;
  Tablefmt.print t;
  print_endline "Watch the Megaflow column dip when the second workload lands."
