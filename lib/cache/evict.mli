(** Replacement policies for capacity pressure.

    Every cache level (Microflow, the cuckoo table, Megaflow, the Gigaflow
    LTM tables) accepts a policy deciding what happens when an install
    arrives at a full table:

    - [Reject]: refuse the install, which returns {!Install.Rejected} (the
      seed behaviour — a full cache stays frozen until idle-expiry or
      revalidation frees slots).
    - [Lru]: evict the least recently used admissible entry.
    - [Random]: evict a uniformly random admissible entry (what many NIC
      flow-table offload engines ship, being state-free in hardware).
    - [Priority_aware]: evict the lowest-priority admissible entry first
      (ties broken LRU); levels without meaningful priorities fall back to
      the oldest pipeline version, then LRU.

    Evictions made to admit a new entry are returned in the install's
    [pressure_evicted] ({!Install.t}); the datapath's per-level
    [Gf_sim.Metrics] counts them apart from idle-expiry and revalidation
    evictions. *)

type policy = Reject | Lru | Random | Priority_aware

val all : policy list

val to_string : policy -> string
(** Stable lowercase name: "reject", "lru", "random", "priority". *)

val pp : Format.formatter -> policy -> unit
