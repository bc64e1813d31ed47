(** packetblaster-style SLO load test: sustained fixed-rate offered load
    through a single-server queue in front of the datapath, judged
    against a service-level objective window by window.

    Packet [n] of the stream arrives at [n / rate] seconds.  Service
    time is the datapath's modelled latency for the packet; a packet
    whose queueing delay would exceed the budget is tail-dropped and
    never reaches the datapath (a bounded rx ring under overload).
    Sojourn = queueing delay + service.  After [warmup] offered packets,
    [windows] consecutive windows of [window] offered packets each are
    measured: sojourn p50/p99/p99.9 and mean, drop rate, and the
    window's hardware hit rate, each checked against the {!slo}.

    Deterministic: no wall clock — the report is a pure function of
    (stream, rate, budget, window layout), so gates built on it are
    reproducible in CI. *)

type slo = {
  slo_p50_us : float;  (** sojourn median bound, microseconds *)
  slo_p99_us : float;
  slo_p999_us : float;
  slo_drop_rate : float;  (** dropped / offered bound per window *)
  slo_hw_hit_rate : float;  (** hardware hits / processed floor per window *)
}

val default_slo : slo
(** p50 <= 5 us, p99 <= 500 us, p99.9 <= 2000 us, drop rate <= 1%,
    hardware hit rate >= 50%. *)

type window = {
  w_index : int;
  w_offered : int;
  w_processed : int;
  w_dropped : int;
  w_drop_rate : float;
  w_mean_us : float;
  w_p50_us : float;
  w_p99_us : float;
  w_p999_us : float;
  w_hw_hit_rate : float;
  w_truncated : bool;
      (** The stream ran dry before the window filled ([w_offered] short
          of the configured window size): its quantiles are under-sampled,
          so the window is reported but excluded from SLO gating. *)
  w_violations : string list;
      (** One ["<metric> <observed> <cmp> <bound>"] line per violated
          objective; empty iff the window met the SLO.  Computed for
          truncated windows too (diagnostics), but never gated. *)
}

type report = {
  rate_pps : float;
  warmup : int;
  window_packets : int;
  queue_budget_us : float;
  slo : slo;
  preset : string;  (** Hierarchy preset name the run used. *)
  engine : string;  (** Replay engine flavour ("memo"). *)
  windows : window list;
  total_offered : int;
  total_processed : int;
  total_dropped : int;
  pass : bool;
      (** Every complete (non-truncated) measured window met every
          objective; [false] when no complete window was measured. *)
}

val run :
  ?queue_budget_us:float ->
  ?warmup:int ->
  ?window:int ->
  ?windows:int ->
  ?telemetry:Gf_telemetry.Telemetry.t ->
  ?controller:(Gf_sim.Datapath.t -> window -> unit) ->
  rate:float ->
  slo:slo ->
  Gf_sim.Datapath.config ->
  Gf_pipeline.Pipeline.t ->
  Gf_workload.Trace.stream ->
  report
(** Defaults: [queue_budget_us = 500], [warmup = 50_000],
    [window = 100_000], [windows = 5].  The stream must supply
    [warmup + windows * window] packets; if it runs dry early, the final
    partial window is reported with [w_truncated = true] and excluded
    from the gate; [pass] is [false] when no complete window was
    measured.  [telemetry] is passed through to the datapath (the
    loadtest then exercises the instrumented packet path).

    [controller] is the adaptive-control actuation hook: it is invoked
    once per window close with the live datapath and the just-measured
    window — control cadence == measurement cadence — plus once when the
    warmup span ends, with a synthetic window of index [-1] measuring
    the warmup (never reported, never gated) so a controller can steer
    before window 0 is judged.  The hook may mutate datapath knobs
    ([Datapath.set_admission] / [set_evict_policy] /
    [set_level_capacity]); firing points are a pure function of the
    stream position, so a hook that never acts leaves the report
    bit-identical to a run without one. *)

val write_jsonl :
  ?meta:(string * Gf_util.Json.t) list ->
  ?extra:Gf_util.Json.t list ->
  out_channel ->
  report ->
  unit
(** One [loadtest_meta] line ([meta] pairs prepended; always carries the
    [commit] hash of the measuring tree, the [preset] name and the
    [engine] flavour), one [loadtest_window] line per window, then any
    [extra] lines (e.g. [controller_action] records from [Gf_control]),
    then one [loadtest_summary] line carrying the machine-readable
    pass/fail gate. *)
