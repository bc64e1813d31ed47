module Rng = Gf_util.Rng
module Zipf = Gf_util.Zipf
module Bitops = Gf_util.Bitops

type profile = {
  endpoints : int;
  subnets : int;
  services : int;
  ports : int;
  vlans : int;
  popularity : float;
  src_exact : float;
  src_wide : float;
  dst_exact : float;
  dst_wide : float;
  proto_any : float;
  tp_src_pinned : float;
  tp_dst_any : float;
  tail_src : float;  (* P(rule references a cold, near-unique source endpoint) *)
  tail_dst : float;
  tail_svc : float;
}

let acl_profile =
  {
    endpoints = 2048;
    subnets = 256;
    services = 512;
    ports = 48;
    vlans = 64;
    popularity = 0.9;
    src_exact = 0.12;
    src_wide = 0.06;
    dst_exact = 0.15;
    dst_wide = 0.06;
    proto_any = 0.12;
    tp_src_pinned = 0.02;
    tp_dst_any = 0.20;
    tail_src = 0.35;
    tail_dst = 0.35;
    tail_svc = 0.05;
  }

let firewall_profile =
  {
    endpoints = 768;
    subnets = 96;
    services = 256;
    ports = 8;
    vlans = 12;
    popularity = 1.05;
    src_exact = 0.15;
    src_wide = 0.25;
    dst_exact = 0.20;
    dst_wide = 0.20;
    proto_any = 0.25;
    tp_src_pinned = 0.05;
    tp_dst_any = 0.40;
    tail_src = 0.20;
    tail_dst = 0.20;
    tail_svc = 0.15;
  }

let ipsec_profile =
  {
    endpoints = 2048;
    subnets = 256;
    services = 128;
    ports = 16;
    vlans = 32;
    popularity = 0.7;
    src_exact = 0.60;
    src_wide = 0.02;
    dst_exact = 0.65;
    dst_wide = 0.02;
    proto_any = 0.05;
    tp_src_pinned = 0.15;
    tp_dst_any = 0.15;
    tail_src = 0.50;
    tail_dst = 0.50;
    tail_svc = 0.05;
  }

type rule = {
  ip_src : int * int;
  ip_dst : int * int;
  proto : int option;
  tp_src : int option;
  tp_dst : int option;
  eth_src : int;
  eth_dst : int;
  vlan : int;
  in_port : int;
}

type endpoint = { mac : int; ip : int; subnet : int; vlan : int; in_port : int }

type service = { svc_proto : int; svc_port : int }

type t = {
  rng : Rng.t;
  profile : profile;
  endpoint_pool : endpoint array;
  service_pool : service array;
  zipf_endpoint : Zipf.t;
  zipf_service : Zipf.t;
}

let well_known_ports = [| 22; 53; 80; 123; 179; 443; 3306; 5432; 6379; 8080; 8443; 9090 |]

(* Subnet s lives at 10.(s/256).(s mod 256).0/24, so /16 aggregates group
   256 consecutive subnets — a realistic nested-prefix hierarchy. *)
let subnet_base s = (10 lsl 24) lor ((s land 0xFFFF) lsl 8)

let create ?(profile = acl_profile) ~seed () =
  let rng = Rng.create seed in
  let p = profile in
  let endpoint_pool =
    Array.init p.endpoints (fun _ ->
        let subnet = Rng.int rng p.subnets in
        let host = 1 + Rng.int rng 254 in
        let mac = 0x020000000000 lor Rng.int rng (1 lsl 40) in
        {
          mac;
          ip = subnet_base subnet lor host;
          subnet;
          (* VLAN and ingress port correlate with the subnet, as in a real
             rack: one VLAN per subnet group, a few ports per VLAN. *)
          vlan = 10 + (subnet mod p.vlans);
          in_port = 1 + (((subnet * 7) + Rng.int rng 3) mod p.ports);
        })
  in
  let service_pool =
    Array.init p.services (fun i ->
        let svc_port =
          if i < Array.length well_known_ports then well_known_ports.(i)
          else 1024 + Rng.int rng 30000
        in
        let svc_proto = if Rng.bernoulli rng 0.75 then 6 else 17 in
        { svc_proto; svc_port })
  in
  {
    rng;
    profile = p;
    endpoint_pool;
    service_pool;
    zipf_endpoint = Zipf.create ~n:p.endpoints ~s:p.popularity;
    zipf_service = Zipf.create ~n:p.services ~s:p.popularity;
  }

let profile t = t.profile

let ip_constraint rng ~exact_p ~wide_p (e : endpoint) =
  let r = Rng.float rng 1.0 in
  if r < exact_p then (e.ip, 32)
  else if r < exact_p +. wide_p then
    (subnet_base e.subnet land Bitops.prefix_mask ~width:32 16, 16)
  else (subnet_base e.subnet, 24)

(* Cold-tail draws: near-unique components outside the hot pools, living in
   their own subnet range so they do not nest inside core prefixes. *)
let tail_endpoint t =
  let rng = t.rng in
  let p = t.profile in
  let subnet = p.subnets + Rng.int rng (65536 - p.subnets) in
  {
    mac = 0x020000000000 lor Rng.int rng (1 lsl 40);
    ip = subnet_base subnet lor (1 + Rng.int rng 254);
    subnet;
    vlan = 10 + (subnet mod p.vlans);
    in_port = 1 + (subnet * 7 mod p.ports);
  }

(* Tail services live in the ephemeral port range, core services below it —
   the standard registered/ephemeral split.  This keeps the cold tail
   excludable from hot-service cache entries with a single prefix bit. *)
let tail_service t =
  let rng = t.rng in
  {
    svc_proto = (if Rng.bernoulli rng 0.75 then 6 else 17);
    svc_port = 32768 + Rng.int rng 32768;
  }

let pick_rule t =
  let rng = t.rng in
  let p = t.profile in
  let src =
    if Rng.bernoulli rng p.tail_src then tail_endpoint t
    else t.endpoint_pool.(Zipf.sample t.zipf_endpoint rng)
  in
  let dst =
    if Rng.bernoulli rng p.tail_dst then tail_endpoint t
    else t.endpoint_pool.(Zipf.sample t.zipf_endpoint rng)
  in
  let svc =
    if Rng.bernoulli rng p.tail_svc then tail_service t
    else t.service_pool.(Zipf.sample t.zipf_service rng)
  in
  let proto =
    if Rng.bernoulli rng p.proto_any then None
    else if Rng.bernoulli rng 0.93 then Some svc.svc_proto
    else Some 1 (* a sprinkle of ICMP rules *)
  in
  let tp_src, tp_dst =
    match proto with
    | Some 1 | None -> (None, None)
    | Some _ ->
        ( (if Rng.bernoulli rng p.tp_src_pinned then
             Some t.service_pool.(Zipf.sample t.zipf_service rng).svc_port
           else None),
          if Rng.bernoulli rng p.tp_dst_any then None else Some svc.svc_port )
  in
  {
    ip_src = ip_constraint rng ~exact_p:p.src_exact ~wide_p:p.src_wide src;
    ip_dst = ip_constraint rng ~exact_p:p.dst_exact ~wide_p:p.dst_wide dst;
    proto;
    tp_src;
    tp_dst;
    eth_src = src.mac;
    eth_dst = dst.mac;
    vlan = src.vlan;
    in_port = src.in_port;
  }

let generate t n = Array.init n (fun _ -> pick_rule t)

(* Per-VLAN first-hop gateways: a handful of router MACs.  They live in a
   distinct locally-administered OUI (0x06...) so that an L2-lookup miss on
   a gateway-addressed frame is excluded from the endpoint MAC population
   (0x02...) by a short constant prefix — as in a real deployment where
   router MACs are recognisable, and important for cache-entry sharing. *)
let gateway_mac _t (rule : rule) = 0x06FFFF000000 lor (rule.vlan land 0xFF)

(* Fig. 4: average multiplicity of k-field sub-tuples over the 5-tuple
   (ip_src, ip_dst, proto, tp_src, tp_dst). *)
let five_tuple_sharing rules ~k =
  if k < 1 || k > 5 then
    invalid_arg "Classbench.five_tuple_sharing: k must be in [1, 5]";
  let project rule = function
    | 0 -> Printf.sprintf "s%d/%d" (fst rule.ip_src) (snd rule.ip_src)
    | 1 -> Printf.sprintf "d%d/%d" (fst rule.ip_dst) (snd rule.ip_dst)
    | 2 -> Printf.sprintf "p%s" (match rule.proto with Some p -> string_of_int p | None -> "*")
    | 3 -> Printf.sprintf "S%s" (match rule.tp_src with Some p -> string_of_int p | None -> "*")
    | 4 -> Printf.sprintf "D%s" (match rule.tp_dst with Some p -> string_of_int p | None -> "*")
    | _ -> assert false
  in
  let rec subsets start size =
    if size = 0 then [ [] ]
    else if start >= 5 then []
    else
      List.map (fun rest -> start :: rest) (subsets (start + 1) (size - 1))
      @ subsets (start + 1) size
  in
  let ratios =
    List.map
      (fun subset ->
        let counts = Hashtbl.create 1024 in
        Array.iter
          (fun rule ->
            let key = String.concat "|" (List.map (project rule) subset) in
            Hashtbl.replace counts key
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
          rules;
        float_of_int (Array.length rules) /. float_of_int (Hashtbl.length counts))
      (subsets 0 k)
  in
  List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
