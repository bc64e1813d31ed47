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
    also the sharding function of {!Parallel.shard} and the engine's
    demux, so the static model and both replay drivers agree on flow
    placement by construction. *)

val distribute : cores:int -> (int, int) Hashtbl.t -> t
(** RSS-hash each flow id onto one of [cores] cores and sum its cycles
    there. Deterministic.  Raises [Invalid_argument] if [cores <= 0]. *)

val max_load : t -> int
(** The bottleneck core's cycles. *)

val total_load : t -> int
