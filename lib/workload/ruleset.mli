(** Multi-table ruleset construction — the heart of the paper's Pipebench
    (section 6.1): populate a real-world pipeline with rules derived from a
    ClassBench-style ruleset, and sample concrete flows from it.

    For each {b combo} we pick a traversal template of the pipeline and a
    ClassBench rule, then project the rule's components onto every hop of
    the template: the hop's match uses exactly the fields the template says
    that table matches, taking values (exact MACs/VLANs/ports, IP prefixes)
    from the ClassBench rule.  Hop actions jump to the template's next
    table; routing/LB/SNAT-style tables additionally rewrite headers, with
    rewrite values derived {e deterministically from the matched
    components} so that identical components yield identical rules — which
    is what lets different combos share pipeline rules, and ultimately lets
    Gigaflow share sub-traversal cache entries.

    Flows are concretized from combos (wildcard bits filled randomly).
    High-locality sampling weights combos by how often their components
    recur across the ruleset (the paper's Fig. 4 frequency); low-locality
    sampling is uniform. *)

type locality = High | Low

val locality_name : locality -> string

type combo = {
  template : int;  (** Traversal-template index. *)
  cb : Classbench.rule;
  weight : float;  (** Component-recurrence weight (high-locality). *)
}

type t

val build :
  ?profile:Classbench.profile ->
  ?combos:int ->
  info:Gf_pipelines.Catalog.info ->
  seed:int ->
  unit ->
  t
(** [combos] defaults to 4096 rule chains. Deterministic in [seed]. *)

val pipeline : t -> Gf_pipeline.Pipeline.t
val combo_count : t -> int
val rule_count : t -> int
(** Total pipeline rules installed (after deduplication). *)

val sample_flows :
  ?combo_filter:(int -> bool) ->
  t ->
  seed:int ->
  locality:locality ->
  n:int ->
  Gf_flow.Flow.t array
(** At most [n] distinct concrete flows, in sampling order.  Sampling
    stops after [50 * n] draws, so it returns fewer than [n] flows when
    those draws find fewer distinct ones, as on a ruleset of a few combos
    with exact constraints.  Deterministic in [seed].  [combo_filter] restricts sampling to a subset of combo
    indices — used to build workloads over disjoint rule-space regions
    (the paper's Fig. 18). *)
