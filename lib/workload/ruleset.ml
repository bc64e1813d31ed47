module Rng = Gf_util.Rng
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Fmatch = Gf_flow.Fmatch
module Headers = Gf_flow.Headers
module Action = Gf_pipeline.Action
module Builder = Gf_pipeline.Builder
module Pipeline = Gf_pipeline.Pipeline
module Ofrule = Gf_pipeline.Ofrule
module Catalog = Gf_pipelines.Catalog

type locality = High | Low

let locality_name = function High -> "high" | Low -> "low"

type combo = { template : int; cb : Classbench.rule; weight : float }

(* What we know about a field while building a rule chain: the constraint a
   flow must satisfy to take this combo's path. *)
type constr = Exact of int | Prefix of int * int | Any

type t = {
  info : Catalog.info;
  pipeline : Pipeline.t;
  combos : combo array;
  entry_views : constr array array; (* per combo: per-field entry constraint *)
}

let pipeline t = t.pipeline
let combo_count t = Array.length t.combos
let rule_count t = Pipeline.rule_count t.pipeline

(* Deterministic derived values: rewrites must depend only on the matched
   components so identical components produce identical rules. *)
let mix a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) in
  let h = h lxor (h lsr 13) in
  abs h

let router_mac = 0x02000000FFFE
let gateway_ip = Headers.ipv4 "10.255.255.1"

(* Service backends depend on the service only (each service has its own
   backend set), keeping post-DNAT match diversity bounded by the service
   population. *)
let backend_ip cb =
  let p = Option.value ~default:80 cb.Classbench.tp_dst in
  (192 lsl 24) lor (168 lsl 16) lor (mix p 7 land 0xFFFF)

let backend_port cb =
  match cb.Classbench.tp_dst with
  | Some p -> 30000 + (mix p 3 mod 2768)
  | None -> 30080

let out_port_of cb = 1 + (mix cb.Classbench.eth_dst 11 mod 32)

(* Does the table name indicate a given role? *)
let name_has table_name subs =
  List.exists
    (fun sub ->
      let len = String.length sub and n = String.length table_name in
      let rec at i = i + len <= n && (String.sub table_name i len = sub || at (i + 1)) in
      at 0)
    subs

let is_router name = name_has name [ "rout"; "l3_forward"; "l3_fwd" ]
let is_lb name = name_has name [ "lb"; "dnat" ]
let is_snat name = name_has name [ "snat" ]
let is_deny name = name_has name [ "acl"; "default" ]
let is_arp name = name_has name [ "arp" ]

(* Build the ternary match of one hop from the current view, restricted to
   the hop's declared fields.  [Any]-constrained fields are skipped. *)
let hop_match view hop_fields =
  List.fold_left
    (fun fm field ->
      match view.(Field.index field) with
      | Any -> fm
      | Exact v ->
          Fmatch.with_prefix fm field ~value:v ~len:(Field.width field)
      | Prefix (v, len) -> Fmatch.with_prefix fm field ~value:v ~len)
    Fmatch.any hop_fields

let prefix_bits_of view hop_fields =
  List.fold_left
    (fun acc field ->
      match view.(Field.index field) with
      | Any -> acc
      | Exact _ -> acc + Field.width field
      | Prefix (_, len) -> acc + len)
    0 hop_fields

let view_of_cb ~arp (cb : Classbench.rule) =
  let v = Array.make Field.count Any in
  let set f c = v.(Field.index f) <- c in
  set In_port (Exact cb.in_port);
  set Eth_src (Exact cb.eth_src);
  set Eth_dst (Exact cb.eth_dst);
  set Vlan (Exact cb.vlan);
  set Eth_type (Exact (if arp then Headers.ethertype_arp else Headers.ethertype_ipv4));
  set Ip_src (Prefix (fst cb.ip_src, snd cb.ip_src));
  set Ip_dst (Prefix (fst cb.ip_dst, snd cb.ip_dst));
  (match cb.proto with Some p -> set Ip_proto (Exact p) | None -> ());
  (match cb.tp_src with Some p -> set Tp_src (Exact p) | None -> ());
  (match cb.tp_dst with Some p -> set Tp_dst (Exact p) | None -> ());
  v

(* Header rewrites a hop performs, as (field, value) pairs, derived from the
   table's role.  Routing rewrites the MACs to (router, destination
   endpoint); load balancing DNATs to the service backend; SNAT rewrites
   the source. *)
let hop_rewrites table_name cb =
  if is_router table_name then
    [ (Field.Eth_src, router_mac); (Field.Eth_dst, cb.Classbench.eth_dst) ]
  else if is_lb table_name then
    [ (Field.Ip_dst, backend_ip cb); (Field.Tp_dst, backend_port cb) ]
  else if is_snat table_name then [ (Field.Ip_src, gateway_ip) ]
  else []

let install_chain pipeline spec ~band ~dedup ~gateway (template_idx : int) cb =
  let traversal = List.nth spec.Builder.traversals template_idx in
  let hops = traversal.Builder.hops in
  let table_name_of h = Gf_pipeline.Oftable.name (Pipeline.table pipeline h.Builder.table) in
  let arp = List.exists (fun h -> is_arp (table_name_of h)) hops in
  let routed = List.exists (fun h -> is_router (table_name_of h)) hops in
  let view = view_of_cb ~arp cb in
  (* Off-subnet traffic is L2-addressed to the first-hop gateway, not to the
     destination endpoint; routing rewrites it back (see [hop_rewrites]). *)
  if routed then view.(Field.index Field.Eth_dst) <- Exact gateway;
  let entry_view = Array.copy view in
  let rec go = function
    | [] -> ()
    | hop :: rest ->
        let table = Pipeline.table pipeline hop.Builder.table in
        let table_name = Gf_pipeline.Oftable.name table in
        let fmatch = hop_match view hop.Builder.hop_fields in
        let rewrites = hop_rewrites table_name cb in
        let control =
          match rest with
          | next :: _ -> Action.Goto next.Builder.table
          | [] ->
              if is_deny table_name then Action.Terminal Action.Drop
              else Action.Terminal (Action.Output (out_port_of cb))
        in
        let priority = band + prefix_bits_of view hop.Builder.hop_fields in
        let key = (hop.Builder.table, priority, fmatch) in
        if not (Hashtbl.mem dedup key) then begin
          Hashtbl.replace dedup key ();
          let action = { Action.set_fields = rewrites; control } in
          Pipeline.add_rule pipeline ~table:hop.Builder.table
            (Ofrule.v ~id:(Pipeline.fresh_rule_id pipeline) ~priority ~fmatch ~action)
        end;
        (* Apply rewrites to the view so later hops match post-rewrite
           values. *)
        List.iter (fun (f, v) -> view.(Field.index f) <- Exact v) rewrites;
        go rest
  in
  go hops;
  entry_view

(* Component-recurrence weights: how many combos share each component. *)
let compute_weights combos =
  let counts = Hashtbl.create 1024 in
  let bump key = Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)) in
  let keys (cb : Classbench.rule) =
    [
      ("ed", cb.eth_dst);
      ("es", cb.eth_src);
      ("vl", cb.vlan);
      ("dp", mix (fst cb.ip_dst) (snd cb.ip_dst));
      ("sp", mix (fst cb.ip_src) (snd cb.ip_src));
      ("td", Option.value ~default:(-1) cb.tp_dst);
      ("ts", Option.value ~default:(-1) cb.tp_src);
    ]
  in
  Array.iter (fun (_, cb) -> List.iter bump (keys cb)) combos;
  Array.map
    (fun (template, cb) ->
      (* Multiplicative weight: a combo is popular only when all of its
         components recur — this is what concentrates high-locality traffic
         on shareable sub-traversals (the paper's Fig. 4 selection). *)
      let w =
        List.fold_left
          (fun acc key ->
            acc
            *. float_of_int
                 (Option.value ~default:1 (Hashtbl.find_opt counts key)))
          1.0 (keys cb)
      in
      (* Temper the product so high-locality traffic concentrates on
         popular components without collapsing onto a handful of combos:
         combinations stay diverse (megaflow still sees a large rule
         space), components recur (sub-traversals are shared). *)
      { template; cb; weight = w ** 0.35 })
    combos

let build ?profile ?(combos = 4096) ~info ~seed () =
  let spec = info.Catalog.spec in
  let pipeline = Builder.instantiate spec in
  let rng = Rng.create seed in
  let cb_gen = Classbench.create ?profile ~seed:(seed lxor 0x5EED) () in
  let cb_rules = Classbench.generate cb_gen combos in
  let n_templates = List.length spec.Builder.traversals in
  let dedup = Hashtbl.create 4096 in
  let entry_views = Array.make combos [||] in
  let raw =
    Array.init combos (fun i ->
        let template = Rng.int rng n_templates in
        let cb = cb_rules.(i) in
        let band = 100 * (n_templates - template) in
        let gateway = Classbench.gateway_mac cb_gen cb in
        entry_views.(i) <- install_chain pipeline spec ~band ~dedup ~gateway template cb;
        (template, cb))
  in
  { info; pipeline; combos = compute_weights raw; entry_views }

let concretize_view t rng view =
  ignore t;
  let value field = function
    | Exact v -> v
    | Prefix (net, len) ->
        let host_bits = Field.width field - len in
        if host_bits = 0 then net else net lor Rng.int rng (1 lsl host_bits)
    | Any -> (
        match field with
        | Field.Ip_proto -> 6
        | Field.Tp_src | Field.Tp_dst -> 1024 + Rng.int rng 60000
        | _ -> Rng.int rng (1 lsl min 30 (Field.width field)))
  in
  Flow.of_array
    (Array.mapi (fun i c -> value (Field.of_index i) c) view)

let sample_flows ?combo_filter t ~seed ~locality ~n =
  let rng = Rng.create seed in
  let eligible =
    match combo_filter with
    | None -> Array.init (Array.length t.combos) (fun i -> i)
    | Some keep ->
        Array.of_list
          (List.filter keep (List.init (Array.length t.combos) (fun i -> i)))
  in
  let m = Array.length eligible in
  if m = 0 then invalid_arg "Ruleset.sample_flows: empty combo filter";
  let cumulative =
    match locality with
    | Low -> [||]
    | High ->
        let acc = ref 0.0 in
        Array.map
          (fun i ->
            acc := !acc +. t.combos.(i).weight;
            !acc)
          eligible
  in
  let pick_combo () =
    match locality with
    | Low -> eligible.(Rng.int rng m)
    | High ->
        let total = cumulative.(m - 1) in
        let target = Rng.float rng total in
        let lo = ref 0 and hi = ref (m - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cumulative.(mid) >= target then hi := mid else lo := mid + 1
        done;
        eligible.(!lo)
  in
  let seen = Hashtbl.create n in
  let out = Array.make n Flow.zero in
  let count = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 50 * n in
  while !count < n && !attempts < max_attempts do
    incr attempts;
    let i = pick_combo () in
    let flow = concretize_view t rng t.entry_views.(i) in
    if not (Hashtbl.mem seen flow) then begin
      Hashtbl.replace seen flow ();
      out.(!count) <- flow;
      incr count
    end
  done;
  if !count < n then Array.sub out 0 !count else out
