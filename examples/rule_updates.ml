(* Live rule updates and cache revalidation (paper section 4.3): an operator
   tightens an ACL while traffic is flowing; both caches must evict exactly
   the entries the change invalidates, and Gigaflow's shorter sub-traversals
   make its revalidation sweep cheaper.

   Run with:  dune exec examples/rule_updates.exe *)

module Catalog = Gf_pipelines.Catalog
module Ruleset = Gf_workload.Ruleset
module Executor = Gf_pipeline.Executor
module Pipeline = Gf_pipeline.Pipeline
module Megaflow = Gf_cache.Megaflow
module Gigaflow = Gf_core.Gigaflow
module Action = Gf_pipeline.Action
module Field = Gf_flow.Field
module Fmatch = Gf_flow.Fmatch

let () =
  let info = Option.get (Catalog.find "PSC") in
  let rs = Ruleset.build ~combos:16_384 ~info ~seed:33 () in
  let pipeline = Ruleset.pipeline rs in
  let flows = Ruleset.sample_flows rs ~seed:5 ~locality:Ruleset.High ~n:20_000 in

  (* Warm both caches. *)
  let mf = Megaflow.create ~capacity:32_768 () in
  let gf = Gigaflow.create (Gf_core.Config.v ~tables:4 ~table_capacity:8192 ()) in
  Array.iter
    (fun flow ->
      ignore (Gigaflow.handle_miss gf ~now:0.0 ~pipeline flow);
      match Executor.execute pipeline flow with
      | Ok tr -> ignore (Megaflow.install mf ~now:0.0 ~version:(Pipeline.version pipeline) tr)
      | Error _ -> ())
    flows;
  Printf.printf "Warmed caches: Megaflow %d entries, Gigaflow %d entries\n\n%!"
    (Megaflow.occupancy mf)
    (Gf_core.Ltm_cache.occupancy (Gigaflow.cache gf));

  (* The operator blocks TCP/443 at the ACL table (table 5 in PSC) with a
     top-priority deny. *)
  Printf.printf "Operator adds: table=5 priority=10000 tcp,tp_dst=443 -> drop\n%!";
  Pipeline.add_rule pipeline ~table:5
    (Gf_pipeline.Ofrule.v
       ~id:(Pipeline.fresh_rule_id pipeline)
       ~priority:10_000
       ~fmatch:
         (Fmatch.of_fields
            [ (Field.Ip_proto, Gf_flow.Headers.proto_tcp); (Field.Tp_dst, 443) ])
       ~action:(Action.drop ()));

  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, 1000.0 *. (Unix.gettimeofday () -. t0))
  in
  let (mf_evicted, mf_work), mf_ms = time (fun () -> Megaflow.revalidate mf pipeline) in
  let (gf_evicted, gf_work), gf_ms = time (fun () -> Gigaflow.revalidate gf pipeline) in
  Printf.printf "\nRevalidation after the update:\n";
  Printf.printf "  Megaflow: evicted %5d entries, re-executed %6d lookups (%.0f ms)\n"
    mf_evicted mf_work mf_ms;
  Printf.printf "  Gigaflow: evicted %5d entries, re-executed %6d lookups (%.0f ms)\n"
    gf_evicted gf_work gf_ms;

  (* Consistency audit: after revalidation no cache may contradict the new
     pipeline. *)
  let audited = ref 0 and wrong = ref 0 in
  Array.iter
    (fun flow ->
      let expected = Executor.terminal_of pipeline flow in
      let check = function
        | None -> ()
        | Some terminal -> (
            incr audited;
            match expected with
            | Ok (t, _) when Action.terminal_equal t terminal -> ()
            | _ -> incr wrong)
      in
      check
        (Option.map
           (fun h -> h.Gf_cache.Hit.terminal)
           (fst (Megaflow.lookup mf ~now:1.0 flow)));
      check
        (Option.map
           (fun h -> h.Gf_cache.Hit.terminal)
           (fst (Gigaflow.lookup gf ~now:1.0 ~pipeline flow))))
    flows;
  Printf.printf "\nPost-update audit: %d cache hits checked, %d inconsistent\n" !audited
    !wrong;
  if !wrong = 0 then
    print_endline "Both caches are consistent with the updated pipeline."
  else print_endline "BUG: stale cache entries survived revalidation!"
