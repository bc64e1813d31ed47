module Rng = Gf_util.Rng
module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Fmatch = Gf_flow.Fmatch
module Mask = Gf_flow.Mask
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

(* A table's role, read from its name once per build.  Routing rewrites
   the MACs to (router, destination endpoint); load balancing DNATs to the
   service backend; SNAT rewrites the source. *)
type role = Router | Lb | Snat | Plain

type hop = {
  table : int;
  fields : Field.t list;  (* the fields this hop matches *)
  role : role;
  deny : bool;  (* a final hop here drops instead of forwarding *)
}

(* One traversal template with its tables classified. *)
type template = { hops : hop array; arp : bool; routed : bool }

type t = {
  pipeline : Pipeline.t;
  combos : combo array;
  templates : template array;
  gateways : int array; (* per combo: its first-hop gateway MAC *)
}

let pipeline t = t.pipeline
let combo_count t = Array.length t.combos
let rule_count t = Pipeline.rule_count t.pipeline

let templates pipeline spec =
  let name (h : Builder.hop) = Gf_pipeline.Oftable.name (Pipeline.table pipeline h.Builder.table) in
  let hop (h : Builder.hop) =
    let name = name h in
    let role =
      if name_has name [ "rout"; "l3_forward"; "l3_fwd" ] then Router
      else if name_has name [ "lb"; "dnat" ] then Lb
      else if name_has name [ "snat" ] then Snat
      else Plain
    in
    { table = h.Builder.table; fields = h.Builder.hop_fields; role; deny = name_has name [ "acl"; "default" ] }
  in
  Array.of_list
    (List.map
       (fun (tr : Builder.traversal_spec) ->
         let hops = Array.of_list (List.map hop tr.Builder.hops) in
         {
           hops;
           arp = List.exists (fun h -> name_has (name h) [ "arp" ]) tr.Builder.hops;
           routed = Array.exists (fun h -> h.role = Router) hops;
         })
       spec.Builder.traversals)

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
   table's role. *)
let hop_rewrites role cb =
  match role with
  | Router -> [ (Field.Eth_src, router_mac); (Field.Eth_dst, cb.Classbench.eth_dst) ]
  | Lb -> [ (Field.Ip_dst, backend_ip cb); (Field.Tp_dst, backend_port cb) ]
  | Snat -> [ (Field.Ip_src, gateway_ip) ]
  | Plain -> []

(* Chain rules already installed, keyed by (table, priority, match) with
   the key's hash computed once and carried in the key: a probe compares
   hashes before it reads a stored match. *)
module Dedup = Hashtbl.Make (struct
  type t = int * int * Fmatch.t * int

  let equal (t, p, m, h) (t', p', m', h') =
    Int.equal h h' && Int.equal t t' && Int.equal p p' && Fmatch.equal m m'

  let hash (_, _, _, h) = h
end)

(* The ternary match of one hop from the current view, restricted to the
   hop's fields ([Any]-constrained fields are skipped), built in one pass
   into the [pattern] and [mask] scratch vectors, and the number of bits it
   constrains. *)
let hop_match view fields ~pattern ~mask =
  Array.fill pattern 0 Field.count 0;
  Array.fill mask 0 Field.count 0;
  let bits = ref 0 in
  List.iter
    (fun field ->
      let i = Field.index field in
      let constrain value len =
        let pm = Gf_util.Bitops.prefix_mask ~width:(Field.width field) len in
        mask.(i) <- mask.(i) lor pm;
        pattern.(i) <- pattern.(i) lor (value land pm);
        bits := !bits + len
      in
      match view.(i) with
      | Any -> ()
      | Exact v -> constrain v (Field.width field)
      | Prefix (v, len) -> constrain v len)
    fields;
  (Fmatch.v ~pattern:(Flow.of_array pattern) ~mask:(Mask.of_array mask), !bits)

(* What a flow must carry to enter a combo's chain. *)
let entry_view template ~gateway cb =
  let view = view_of_cb ~arp:template.arp cb in
  (* Off-subnet traffic is L2-addressed to the first-hop gateway, not to the
     destination endpoint; routing rewrites it back (see [hop_rewrites]). *)
  if template.routed then view.(Field.index Field.Eth_dst) <- Exact gateway;
  view

let install_chain pipeline template ~band ~dedup ~gateway ~pattern ~mask cb =
  let view = entry_view template ~gateway cb in
  let last = Array.length template.hops - 1 in
  Array.iteri
    (fun k hop ->
      let fmatch, bits = hop_match view hop.fields ~pattern ~mask in
      let rewrites = hop_rewrites hop.role cb in
      let priority = band + bits in
      let hash = (((Fmatch.hash fmatch * 31) + hop.table) * 31) + priority in
      let key = (hop.table, priority, fmatch, hash) in
      (* A new rule is added, never replaced: rewriting a stored key would
         promote every duplicate's match into the major heap. *)
      if not (Dedup.mem dedup key) then begin
        Dedup.add dedup key ();
        let control =
          if k < last then Action.Goto template.hops.(k + 1).table
          else if hop.deny then Action.Terminal Action.Drop
          else Action.Terminal (Action.Output (out_port_of cb))
        in
        let action = { Action.set_fields = rewrites; control } in
        Pipeline.add_rule pipeline ~table:hop.table
          (Ofrule.v ~id:(Pipeline.fresh_rule_id pipeline) ~priority ~fmatch ~action)
      end;
      (* Apply rewrites to the view so later hops match post-rewrite
         values. *)
      List.iter (fun (f, v) -> view.(Field.index f) <- Exact v) rewrites)
    template.hops

(* Component-recurrence weights: how many combos share each component.
   The components are counted one at a time, each in its own int-keyed
   table. *)
let components = 7

let component (cb : Classbench.rule) = function
  | 0 -> cb.eth_dst
  | 1 -> cb.eth_src
  | 2 -> cb.vlan
  | 3 -> mix (fst cb.ip_dst) (snd cb.ip_dst)
  | 4 -> mix (fst cb.ip_src) (snd cb.ip_src)
  | 5 -> Option.value ~default:(-1) cb.tp_dst
  | _ -> Option.value ~default:(-1) cb.tp_src

let compute_weights combos =
  let n = Array.length combos in
  (* Multiplicative weight: a combo is popular only when all of its
     components recur — this is what concentrates high-locality traffic
     on shareable sub-traversals (the paper's Fig. 4 selection). *)
  let weight = Array.make n 1.0 in
  for k = 0 to components - 1 do
    let counts = Gf_util.Int_tbl.create n in
    Array.iter
      (fun (_, cb) ->
        let c = component cb k in
        Gf_util.Int_tbl.replace counts c
          (1 + Option.value ~default:0 (Gf_util.Int_tbl.find_opt counts c)))
      combos;
    Array.iteri
      (fun i (_, cb) ->
        weight.(i) <- weight.(i) *. float_of_int (Gf_util.Int_tbl.find counts (component cb k)))
      combos
  done;
  (* Temper the product so high-locality traffic concentrates on popular
     components without collapsing onto a handful of combos: combinations
     stay diverse (megaflow still sees a large rule space), components
     recur (sub-traversals are shared). *)
  Array.mapi (fun i (template, cb) -> { template; cb; weight = weight.(i) ** 0.35 }) combos

let build ?profile ?(combos = 4096) ~info ~seed () =
  let spec = info.Catalog.spec in
  let pipeline = Builder.instantiate spec in
  let templates = templates pipeline spec in
  let rng = Rng.create seed in
  let cb_gen = Classbench.create ?profile ~seed:(seed lxor 0x5EED) () in
  let cb_rules = Classbench.generate cb_gen combos in
  let n_templates = Array.length templates in
  let dedup = Dedup.create combos in
  let pattern = Array.make Field.count 0 and mask = Array.make Field.count 0 in
  let gateways = Array.map (Classbench.gateway_mac cb_gen) cb_rules in
  let raw =
    Array.init combos (fun i ->
        let template = Rng.int rng n_templates in
        let cb = cb_rules.(i) in
        let band = 100 * (n_templates - template) in
        install_chain pipeline templates.(template) ~band ~dedup ~gateway:gateways.(i) ~pattern
          ~mask cb;
        (template, cb))
  in
  { pipeline; combos = compute_weights raw; templates; gateways }

let concretize_view rng view =
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
  let seen = Flow.Tbl.create n in
  let out = Array.make n Flow.zero in
  let count = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 50 * n in
  while !count < n && !attempts < max_attempts do
    incr attempts;
    let i = pick_combo () in
    let c = t.combos.(i) in
    let flow =
      concretize_view rng (entry_view t.templates.(c.template) ~gateway:t.gateways.(i) c.cb)
    in
    if not (Flow.Tbl.mem seen flow) then begin
      Flow.Tbl.add seen flow ();
      out.(!count) <- flow;
      incr count
    end
  done;
  if !count < n then Array.sub out 0 !count else out
