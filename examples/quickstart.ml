(* Quickstart: build a tiny L2/L3 vSwitch pipeline by hand, process packets
   through a Gigaflow LTM cache, and watch sub-traversal sharing happen.

   Run with:  dune exec examples/quickstart.exe *)

module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Fmatch = Gf_flow.Fmatch
module Headers = Gf_flow.Headers
module Action = Gf_pipeline.Action
module Ofrule = Gf_pipeline.Ofrule
module Oftable = Gf_pipeline.Oftable
module Pipeline = Gf_pipeline.Pipeline
module Gigaflow = Gf_core.Gigaflow
module Ltm_cache = Gf_core.Ltm_cache

let () =
  (* 1. A three-table pipeline: MAC admission -> routing -> service ACL. *)
  let admission =
    Oftable.create ~id:0 ~name:"mac_admission"
      ~match_fields:(Field.Set.of_list [ Field.Eth_src ])
      ~miss:(Action.drop ())
  in
  let routing =
    Oftable.create ~id:1 ~name:"l3_routing"
      ~match_fields:(Field.Set.of_list [ Field.Ip_dst ])
      ~miss:(Action.drop ())
  in
  let acl =
    Oftable.create ~id:2 ~name:"service_acl"
      ~match_fields:(Field.Set.of_list [ Field.Ip_proto; Field.Tp_dst ])
      ~miss:(Action.drop ())
  in
  let pipeline = Pipeline.create ~name:"quickstart" ~entry:0 [ admission; routing; acl ] in

  (* Two known VMs, one /24 route, two allowed services. *)
  let vm1 = Headers.mac "02:00:00:00:00:01" and vm2 = Headers.mac "02:00:00:00:00:02" in
  let add table ~priority fmatch action =
    Pipeline.add_rule pipeline ~table
      (Ofrule.v ~id:(Pipeline.fresh_rule_id pipeline) ~priority ~fmatch ~action)
  in
  List.iter
    (fun mac -> add 0 ~priority:10 (Fmatch.of_fields [ (Field.Eth_src, mac) ]) (Action.goto 1))
    [ vm1; vm2 ];
  add 1 ~priority:10
    (Fmatch.with_prefix Fmatch.any Field.Ip_dst ~value:(Headers.ipv4 "10.1.2.0") ~len:24)
    (Action.goto ~set_fields:[ (Field.Eth_dst, Headers.mac "02:00:00:00:0f:fe") ] 2);
  List.iter
    (fun port ->
      add 2 ~priority:10
        (Fmatch.of_fields [ (Field.Ip_proto, Headers.proto_tcp); (Field.Tp_dst, port) ])
        (Action.output 7))
    [ 80; 443 ];

  (* 2. A Gigaflow instance: 3 LTM tables of 64 entries. *)
  let gf = Gigaflow.create (Gf_core.Config.v ~tables:3 ~table_capacity:64 ()) in

  let packet ~mac ~dst ~dport =
    Headers.tcp ~eth_src:mac ~src:(Headers.ipv4 "10.0.0.9") ~dst:(Headers.ipv4 dst)
      ~sport:33333 ~dport ()
  in
  let send descr flow =
    match Gigaflow.lookup gf ~now:0.0 ~pipeline flow with
    | Some hit, _ ->
        Printf.printf "%-34s -> CACHE HIT  (%s, %d LTM tables matched)\n" descr
          (Format.asprintf "%a" Action.pp_terminal hit.Gf_cache.Hit.terminal)
          (Ltm_cache.last_depth (Gigaflow.cache gf))
    | None, _ -> (
        match Gigaflow.handle_miss gf ~now:0.0 ~pipeline flow with
        | Ok outcome ->
            let segs = List.length outcome.Gigaflow.segments in
            let fresh, shared =
              match outcome.Gigaflow.install with
              | Gf_cache.Install.Installed { fresh; shared; _ } -> (fresh, shared)
              | Gf_cache.Install.Rejected _ -> (0, 0)
            in
            Printf.printf
              "%-34s -> miss: slowpath took %d lookups, cached %d sub-traversals \
               (%d new, %d shared)\n"
              descr
              (Gf_pipeline.Traversal.length outcome.Gigaflow.traversal)
              segs fresh shared
        | Error e ->
            Printf.printf "%-34s -> slowpath error: %s\n" descr
              (Format.asprintf "%a" Gf_pipeline.Executor.pp_error e))
  in

  print_endline "--- first flows populate the cache ---";
  send "vm1 -> 10.1.2.5:80" (packet ~mac:vm1 ~dst:"10.1.2.5" ~dport:80);
  send "vm2 -> 10.1.2.6:443" (packet ~mac:vm2 ~dst:"10.1.2.6" ~dport:443);

  print_endline "--- repeats hit the cache ---";
  send "vm1 -> 10.1.2.5:80 (again)" (packet ~mac:vm1 ~dst:"10.1.2.5" ~dport:80);

  print_endline "--- cross-products hit without ever missing ---";
  (* vm2's admission segment + the shared route + vm1's port-80 ACL segment
     combine: this flow was never seen, yet it is served by the cache. *)
  send "vm2 -> 10.1.2.99:80 (NEW flow)" (packet ~mac:vm2 ~dst:"10.1.2.99" ~dport:80);

  let cache = Gigaflow.cache gf in
  Printf.printf "\nCache: %d entries across %s tables; rule-space coverage %.0f\n"
    (Ltm_cache.occupancy cache)
    (String.concat "+"
       (Array.to_list (Array.map string_of_int (Ltm_cache.table_occupancies cache))))
    (Gf_core.Coverage.count cache ~entry_tag:0);
  Printf.printf "Mean sub-traversal sharing: %.2f installations per entry\n"
    (Ltm_cache.mean_sharing cache)
