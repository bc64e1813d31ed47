(** The exact-match (Microflow) cache: first level of the OVS cache
    hierarchy, capturing temporal locality.

    Keyed on the full header vector; one lookup, no wildcards.  Entries
    expire after [max_idle] of disuse; at capacity the replacement policy
    decides ([Lru] — the historical behaviour — by default). *)

type t

val create : ?policy:Evict.policy -> ?rng_seed:int -> capacity:int -> unit -> t
(** [policy] defaults to [Lru] (the EMC has always evicted LRU when full);
    [rng_seed] feeds the [Random] policy's victim choice. *)

val capacity : t -> int
val policy : t -> Evict.policy

val set_policy : t -> Evict.policy -> unit
(** Swap the replacement policy online; applies from the next install. *)

val set_capacity : t -> int -> unit
(** Retune the admission bound online ([>= 1]).  Shrinking does not evict
    residents — the next install of a new flow evicts down to the new
    bound. *)

val occupancy : t -> int

val lookup : t -> now:float -> Gf_flow.Flow.t -> Hit.t option
(** Refreshes the entry's last-used time on a hit. *)

val install : t -> now:float -> Gf_flow.Flow.t -> Hit.t -> Install.t
(** Insert (replacing any existing entry for the same flow): [Installed]
    with [fresh = 1], a re-install of a present flow included, and
    [pressure_evicted] the entries evicted to make room.  A new flow at
    the bound evicts one victim the policy picks; after {!set_capacity}
    shrank the bound below occupancy it evicts down to the bound, one
    O(occupancy) victim scan each.  Under [Reject] a new flow at or over
    the bound is refused with [Rejected]. *)

val expire : t -> now:float -> max_idle:float -> int
(** Remove entries idle longer than [max_idle]; returns how many. *)

val invalidate_all : t -> int
(** Flush (e.g. on any pipeline rule change — exact-match entries carry no
    dependency information, so OVS-style full invalidation is the only safe
    response). Returns how many entries were dropped. *)
