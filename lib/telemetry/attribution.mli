(** Attribution: aggregates spans pulled from the traversal {!Tracer} into
    per-level probe-cost breakdowns, per-pipeline-table cycle totals and
    sub-traversal reuse-depth histograms, exported as folded-stack text,
    chrome://tracing JSON, Prometheus series and profile JSONL.  Runs
    entirely off the packet loop. *)

(** Span outcome codes shared with {!Tracer}. *)

val outcome_miss : int
val outcome_hit : int
val outcome_slowpath : int

type t

val create : ?retain:int -> level_names:string array -> unit -> t
(** [retain] bounds the spans kept verbatim for the chrome trace (default
    4096); the {e first} sampled spans are retained so the set is
    independent of flush cadence. *)

val sampled_packets : t -> int
val spans : t -> int

val ingest_span :
  t ->
  packet:int ->
  time:float ->
  level:int ->
  table:int ->
  depth:int ->
  cycles:int ->
  outcome:int ->
  unit
(** Fold one span into the aggregates.  Probe spans ([outcome_miss] /
    [outcome_hit]) charge (level, outcome); slowpath spans charge pipeline
    table [table].  [depth] is the LTM tag-chain reuse depth (1/0 for
    unchained levels). *)

val note_sampled_packet : t -> unit

val merge : into:t -> t -> unit
(** Sum aggregates; retained spans concatenate in merge order,
    capped at [into]'s retain bound.  [src] is unchanged. *)

val folded : t -> string
(** Folded-stack text ("frame;frame count" lines, counts in modeled
    cycles) for flamegraph.pl / speedscope; sorted, deterministic. *)

val chrome_json : ?us_of_cycles:(int -> float) -> t -> string
(** chrome://tracing JSON ("X" complete events from the retained spans;
    ts = virtual time in µs, dur via [us_of_cycles], default 1 GHz). *)

val to_registry : t -> Registry.t -> unit
(** Export as [gigaflow_profile_*] series (values set, so re-export is
    idempotent; shard registries still sum under [Registry.merge]). *)

val write_jsonl :
  ?meta:(string * Gf_util.Json.t) list ->
  causes:(string * string * int) list ->
  total_misses:int ->
  out_channel ->
  t ->
  unit
(** Emit profile JSONL: [profile_meta], per-(level,outcome)
    [profile_level] lines, [profile_table], [profile_depth], one
    [profile_cause] line per [(level, cause, count)] row of [causes] (the
    miss census, e.g. [Gf_sim.Metrics.miss_causes]) and a
    [profile_summary] reconciling the rows' sum against [total_misses]. *)
