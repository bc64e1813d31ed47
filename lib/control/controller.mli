(** Adaptive SLO-driven control loop (ROADMAP item 3).

    The controller closes the loop the loadtest harness (PR 7) left open:
    it consumes one observation per measurement window — the window's SLO
    verdict from {!Gf_engine.Loadtest}, plus the per-level miss-cause
    counts in {!Gf_sim.Metrics} — and emits {e bounded} actuations on the datapath's online
    knobs: {!Gf_sim.Datapath.set_admission} (retarget the heavy-hitter
    K / threshold without losing the learned hot set),
    {!Gf_sim.Datapath.set_evict_policy} per level, and software-level
    capacity ({!Gf_sim.Datapath.set_level_capacity}).

    Observation → decision → actuation, window by window:

    - {b Observe.}  The per-window record carries hit-rate, sojourn
      quantiles and drop rate; the census deltas since the previous
      window attribute the misses ({e cold} vs {e deferred_admission} vs
      {e pressure_evicted} vs {e tag_chain_stall}), which is what picks
      the remedy.
    - {b Decide.}  Pure rules over the observation: a violated hardware
      hit-rate floor is answered according to the dominant miss cause
      (deferred → lower the admission threshold, then grow K;
      pressure / stall → stop rejecting: flip hardware eviction to LRU,
      or raise the threshold if already evicting; cold → admit faster),
      a latency/drop violation with a healthy hit rate grows the
      software tail's capacity.  A clean window decides nothing.
    - {b Actuate.}  At most [max_actions] knob writes per window, each
      knob rate-limited by a [cooldown] of windows, every bound clamped
      ([min_threshold], [max_k], [max_sw_capacity]) — the controller can
      nudge, not thrash.

    Determinism: decisions are pure functions of the observation stream
    (no RNG, no wall clock), the actuations are deterministic datapath
    transitions, and the hook fires at window closes — a pure function
    of the stream position (see [Loadtest.run ?controller]).  A
    controller that never acts is observation-transparent: the run's
    report is bit-identical to one without it, at any window cadence. *)

type spec = {
  min_threshold : int;  (** floor when lowering the admission threshold *)
  max_k : int;  (** cap when growing the sketch's K *)
  max_sw_capacity : int;  (** cap when growing a software level's bound *)
  cooldown : int;
      (** windows to wait before re-actuating the same knob (0 = every
          window) *)
  max_actions : int;  (** actuation budget per window *)
}

val default_spec : spec
(** [min_threshold = 1], [max_k = 4096], [max_sw_capacity = 65536],
    [cooldown = 1], [max_actions = 2]. *)

val spec_to_string : spec -> string

val spec_of_string : string -> (spec, string) result
(** Accepts ["slo"] (the defaults) optionally followed by comma-separated
    [key=value] overrides: [min-threshold], [max-k], [max-sw-capacity],
    [cooldown], [max-actions] — e.g.
    ["slo,min-threshold=2,max-actions=1"]. *)

type action = {
  act_window : int;  (** window index; [-1] = the warmup observation *)
  act_knob : string;
      (** ["admission"] (threshold / K retune) or ["evict"] / ["capacity"]
          (per-level) *)
  act_level : string;  (** level name; [""] for datapath-global knobs *)
  act_from : string;  (** old setting, human-readable *)
  act_to : string;  (** new setting *)
  act_reason : string;
      (** violated objective + dominant miss cause that picked the
          remedy *)
}

type t

val create : ?spec:spec -> unit -> t

val on_window : t -> Gf_sim.Datapath.t -> Gf_engine.Loadtest.window -> unit
(** The {!Gf_engine.Loadtest.run} [?controller] hook: observe the window,
    decide, actuate on [dp].  Clean windows only refresh the baselines
    (no datapath mutation whatsoever). *)

val actions : t -> action list
(** Every actuation taken so far, chronological. *)

val action_json : action -> Gf_util.Json.t
(** One {!Gf_telemetry.Schema.Controller_action} JSONL record, a line of
    the loadtest report that {!Gf_telemetry.Schema.check_jsonl} validates. *)
