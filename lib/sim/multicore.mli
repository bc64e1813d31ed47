(** Multi-core slowpath scaling (paper Appendix A).

    OVS distributes SmartNIC cache misses across vSwitch cores with RSS:
    each flow hashes to one core, so per-flow work never splits and
    per-core load drops roughly proportionally with the core count.  This
    module turns a per-flow slowpath-cycle census (collected by
    {!Datapath.run}'s [miss_sink]) into per-core load figures. *)

type t = {
  cores : int;
  loads : int array;  (** Cycles per core, length [cores]. *)
}

val rss_hash : int -> int
(** The flow-stable multiplicative hash used to spread flows over cores;
    also the sharding function of {!Parallel.shard}, so the static model
    and the real replay engine agree on flow placement by construction. *)

val distribute : cores:int -> (int, int) Hashtbl.t -> t
(** RSS-hash each flow id onto one of [cores] cores and sum its cycles
    there. Deterministic.  Raises [Invalid_argument] if [cores <= 0]. *)

val of_loads : int array -> t
(** Wrap measured per-core loads (e.g. per-domain slowpath cycles observed
    by {!Parallel.replay}) so they can be compared against the static model
    with the same [imbalance]/[speedup] operators.  Raises
    [Invalid_argument] on an empty array. *)

val max_load : t -> int
(** The bottleneck core's cycles. *)

val total_load : t -> int

val imbalance : t -> float
(** max over mean per-core load; 1.0 = perfectly balanced. *)

val speedup : baseline:t -> t -> float
(** Bottleneck-load ratio between a baseline (typically 1 core) and this
    distribution. *)
