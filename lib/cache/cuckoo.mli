(** 2-choice cuckoo exact-match table (Snabb-ctable style).

    A software cache level for the long tail of mice that never earn a
    hardware slot: two buckets per key (the second hash is a deterministic
    remix of the first), four slots per bucket, and a bounded kick chain
    on insert.  Storage is bucket-dense: only buckets holding a resident
    have slots, found through a 4-byte-per-bucket directory the GC does
    not scan, so memory, idle-expiry sweeps and flushes cost in
    proportion to the residents, not to the admission bound.  Lookup
    probes at most 8 slots — no hashtable chains, no polymorphic compare,
    no allocation.

    Semantics match {!Microflow}: exact match on the full header vector,
    entries carry the cached terminal + output flow, [max_idle] expiry, and
    an {!Evict.policy} under capacity pressure.  Under [Reject] a full
    bucket pair refuses the install (no kicking — nothing is ever displaced
    out of the table); under the evicting policies a failed kick chain
    drops the last displaced entry as one pressure eviction. *)

type t

val create : ?policy:Evict.policy -> ?rng_seed:int -> capacity:int -> unit -> t
(** [capacity] is the admission bound (installs beyond it consult the
    policy); the logical geometry is the next power-of-two bucket count
    holding [capacity] at ≤ 80% load so kick chains stay short.  Only the
    bucket directory (4 bytes per logical bucket) is allocated up front;
    bucket storage grows with the residents.  [policy] defaults to
    [Lru]. *)

val capacity : t -> int
val slots : t -> int
(** Slot count of the logical geometry (≥ capacity): buckets × 4, whether
    or not a bucket has storage. *)

val policy : t -> Evict.policy

val set_policy : t -> Evict.policy -> unit
(** Swap the replacement policy online; applies from the next install. *)

val set_capacity : t -> int -> unit
(** Retune the admission bound online ([>= 1]), clamped to {!slots}
    (the logical geometry is fixed at creation).  Shrinking does not
    evict residents — the next install of a new key evicts down to the
    new bound. *)

val occupancy : t -> int

val lookup : t -> now:float -> Gf_flow.Flow.t -> Hit.t option
(** Refreshes the entry's last-used time on a hit. *)

val install : t -> now:float -> Gf_flow.Flow.t -> Hit.t -> Install.t
(** Insert (replacing any existing entry for the same key): [Installed]
    with [fresh = 1], a re-install of a present key included, and
    [pressure_evicted] the entries evicted under pressure (a policy
    victims, a dropped end of a failed kick chain, or both).  At the
    bound each victim comes from the newcomer's two buckets or, when both
    are empty, from the whole table (the least recently used resident
    under [Lru] and [Priority_aware], a seeded draw under [Random]), so
    no install raises occupancy above the bound.  After {!set_capacity}
    shrank the bound below occupancy, the next install of a new key
    evicts down to it (a victim beyond the bucket pair's residents costs
    a scan of the table).  Under [Reject] a table at or over the bound,
    or a full bucket pair, refuses the install and returns
    [Rejected]. *)

val expire : t -> now:float -> max_idle:float -> int
(** Remove entries idle longer than [max_idle]; returns how many. *)

val invalidate_all : t -> int
(** Flush every entry (rule-change response; exact-match entries carry no
    dependency info).  Returns how many were dropped. *)
