(** Time-series sampler: periodic snapshots of per-level hit rate,
    occupancy and latency quantiles.

    The producer (the datapath) builds a {!sample} whenever {!due} says the
    cadence has come round; this module owns only the cadence and the
    buffer.  Samples are drained as JSON Lines by {!Export.sample_json}. *)

type level_sample = {
  ls_level : string;
  ls_tier : string;  (** "hardware" | "software" *)
  ls_hits : int;
  ls_misses : int;
  ls_hit_rate : float;  (** 0.0 when the level was never consulted *)
  ls_occupancy : int;
  ls_p50_us : float;
  ls_p99_us : float;
}

type sample = {
  s_packet : int;  (** packets processed when the snapshot was taken *)
  s_time : float;  (** virtual trace time, seconds *)
  s_hw_hits : int;
  s_sw_hits : int;
  s_slowpaths : int;
  s_hw_hit_rate : float;
  s_mean_us : float;
  s_p50_us : float;
  s_p90_us : float;
  s_p99_us : float;
  s_p999_us : float;
  s_levels : level_sample list;
}

type t

val create : every:int -> t
(** Snapshot cadence in packets; must be positive. *)

val due : t -> packets:int -> bool
(** True on every [every]-th packet, and never twice for the same packet
    count (so a final flush can push unconditionally). *)

val push : t -> sample -> unit
(** Append a sample (deduplicated by packet count against the newest). *)

val samples : t -> sample list
(** Oldest first. *)

val length : t -> int

val merge : into:t -> t -> unit
(** Keep every shard's samples, ordered by packet index (each shard counts
    its own packets).  [src] is unchanged. *)
