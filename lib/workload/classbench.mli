(** A ClassBench-style ruleset synthesizer (Taylor & Turner, ToN'07).

    ClassBench's essential property is that rule field values are not
    independent: a datacenter has a bounded population of {b endpoints}
    (VM/pod with a MAC, an IP inside a subnet, a VLAN and an ingress port)
    and of {b services} (protocol + destination port), and rules are drawn
    from the cross-product of those populations.  Sub-tuples of fields
    therefore recur across many rules (the paper's Fig. 4), while the full
    5-tuple is almost unique per rule — exactly the structure that lets
    Gigaflow cache shared sub-traversals while Megaflow must cache the
    cross-product.

    Prefixes nest realistically: a rule constrains its source/destination
    at endpoint (/32), subnet (/24) or aggregate (/16) granularity, which
    exercises the minimal dependency-unwildcarding machinery
    (section 4.2.3 of the paper). *)

type profile = {
  endpoints : int;  (** Distinct VMs/pods. *)
  subnets : int;  (** /24 networks the endpoints live in. *)
  services : int;  (** Distinct (protocol, destination port) services. *)
  ports : int;  (** Physical/virtual ingress ports. *)
  vlans : int;
  popularity : float;  (** Zipf exponent for pool element reuse. *)
  src_exact : float;  (** P(rule matches source at /32). *)
  src_wide : float;  (** P(rule matches source at /16); remainder /24. *)
  dst_exact : float;
  dst_wide : float;
  proto_any : float;  (** P(rule wildcards the IP protocol). *)
  tp_src_pinned : float;  (** P(rule pins the source port). *)
  tp_dst_any : float;  (** P(rule wildcards the destination port). *)
  tail_src : float;
      (** P(rule references a cold, near-unique source endpoint).  The
          component population is two-tier: a hot core pool (shared by many
          rules — high-locality traffic lives here) plus a cold long tail
          of near-unique endpoints/services (scanners, ephemeral peers);
          uniform rule selection (low locality) drags the tail in. *)
  tail_dst : float;
  tail_svc : float;
}

val acl_profile : profile
(** Datacenter ACL-style preset (the paper's default seed). *)

val firewall_profile : profile
(** Smaller populations, wider wildcards. *)

val ipsec_profile : profile
(** Narrow, endpoint-pair-heavy rules. *)

type rule = {
  ip_src : int * int;  (** (network value, prefix length) *)
  ip_dst : int * int;
  proto : int option;  (** [None] = any *)
  tp_src : int option;
  tp_dst : int option;
  eth_src : int;
  eth_dst : int;  (** Destination endpoint MAC (L2 traffic view). *)
  vlan : int;
  in_port : int;
}

type t

val create : ?profile:profile -> seed:int -> unit -> t

val profile : t -> profile

val generate : t -> int -> rule array
(** [generate t n] draws [n] rules (deterministic in the seed). *)

val gateway_mac : t -> rule -> int
(** The first-hop router MAC a flow of this rule would use when routed off
    its subnet (per-VLAN gateways). *)

val five_tuple_sharing : rule array -> k:int -> float
(** Fig. 4's metric: the average number of rules sharing a given [k]-field
    sub-tuple of the 5-tuple, averaged over all C(5,k) field choices.
    Raises [Invalid_argument] unless [k] is in [1, 5]. *)
