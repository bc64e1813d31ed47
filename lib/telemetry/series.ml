(* Time-series sampler: periodic snapshots of per-level hit rate, occupancy
   and latency quantiles, accumulated in memory and drained as JSON Lines by
   the exporters.  The producer (the datapath) decides what goes into a
   sample; this module owns only the cadence and the buffer. *)

type level_sample = {
  ls_level : string;
  ls_tier : string;
  ls_hits : int;
  ls_misses : int;
  ls_hit_rate : float;  (* 0.0 when the level was never consulted *)
  ls_occupancy : int;
  ls_p50_us : float;
  ls_p99_us : float;
}

type sample = {
  s_packet : int;  (* packets processed when the snapshot was taken *)
  s_time : float;  (* virtual trace time *)
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

type t = {
  every : int;
  mutable rev_samples : sample list;
  mutable last_packet : int;  (* packet index of the newest sample, -1 if none *)
}

let create ~every =
  if every < 1 then invalid_arg "Series.create: every must be positive";
  { every; rev_samples = []; last_packet = -1 }

(* A snapshot is due on every [every]-th packet (and never twice for the
   same packet count, so a final flush can call [push] unconditionally). *)
let due t ~packets = packets mod t.every = 0 && packets <> t.last_packet

let push t sample =
  if sample.s_packet <> t.last_packet then begin
    t.rev_samples <- sample :: t.rev_samples;
    t.last_packet <- sample.s_packet
  end

let samples t = List.rev t.rev_samples
let length t = List.length t.rev_samples

(* Shard merge keeps every shard's samples, ordered by packet index (each
   shard counts its own packets, so interleaving by s_packet is the only
   meaningful order).  The merged series no longer deduplicates by packet
   index — two shards legitimately snapshot at the same count. *)
let merge ~into src =
  let all = samples into @ samples src in
  let sorted = List.stable_sort (fun a b -> compare a.s_packet b.s_packet) all in
  into.rev_samples <- List.rev sorted;
  into.last_packet <- -1
