(** The Megaflow cache: OVS's single-lookup wildcard cache (the paper's
    baseline, K = 1).

    Each entry collapses a whole traversal into one ternary rule: match =
    input flow masked by the traversal's re-based consulted wildcard; action
    = the commit (composed set-field rewrites) plus the terminal decision.
    The consulted wildcard carries the priority-dependency bits, so every
    entry — and therefore any overlap between entries — reproduces the
    slowpath decision exactly (property-tested), which licenses the ranked
    first-match search.

    The search structure is pluggable (TSS or NuevoMatch — Fig. 17); lookup
    reports the work units spent for the latency model. *)

type t

val create :
  ?search:Gf_classifier.Searcher.algo ->
  ?policy:Evict.policy ->
  ?rng_seed:int ->
  capacity:int ->
  unit ->
  t
(** [search] defaults to [`Tss]; [policy] to [Reject] (the historical
    behaviour: a full table refuses installs); [rng_seed] feeds the
    [Random] policy's victim choice. *)

val capacity : t -> int
val policy : t -> Evict.policy

val set_policy : t -> Evict.policy -> unit
(** Swap the replacement policy online; applies from the next install. *)

val set_capacity : t -> int -> unit
(** Retune the admission bound online ([>= 1]).  Shrinking does not evict
    residents — the new bound bites on the next install (which then evicts
    down under the evicting policies). *)

val occupancy : t -> int

val check_invariants : t -> bool
(** [true] iff the two indexes ([by_fmatch] : match -> key and
    [by_key] : key -> match) form a bijection over the same entry set.
    An entry present in one but not the other would mean an eviction
    path forgot a table; [install] [assert]s the same property when the
    match is already cached. *)

val lookup : t -> now:float -> Gf_flow.Flow.t -> Hit.t option * int
(** Result and classifier work units. Refreshes last-used on hit. *)

val lookup_replay :
  t -> now:float -> Gf_flow.Flow.t -> Hit.t option * int * (now:float -> int)
(** {!lookup}, plus a closure that replays that lookup's per-packet
    effects — last-used refresh, TSS rank promotion — and returns the work
    a live lookup of the same flow would report now, or -1 once stale
    (and forever after).  A hit replays while its entry is still cached;
    under stateless search ([`Linear], [`Nuevomatch]) it also needs the
    entry set unchanged since the lookup.  A miss replays while the entry
    set is unchanged.  A call allocates nothing.  The cache keeps no
    per-flow state: holding the closure is the caller's memo. *)

val install : t -> now:float -> version:int -> Gf_pipeline.Traversal.t -> Install.t
(** Collapse the traversal and insert.  [Installed] with [fresh = 1] and
    [pressure_evicted] the entries evicted under capacity pressure to
    make room (always 0 under [Reject]); [Installed] with every count 0
    when an identical match is already cached (its last-used time is
    refreshed); [Rejected] when the cache is full and the policy refuses
    to evict.  [version] is the pipeline version, kept for revalidation
    bookkeeping and consulted by the [Priority_aware] victim choice. *)

val expire : t -> now:float -> max_idle:float -> int
(** Evict entries idle longer than [max_idle]; returns how many. *)

val demote : t -> is_hot:(Gf_flow.Flow.t -> bool) -> int
(** Admission re-partition sweep: evict every entry whose representative
    flow ([parent_input]) fails [is_hot], freeing hardware slots for the
    current heavy hitters.  Returns how many entries were demoted. *)

val revalidate : t -> Gf_pipeline.Pipeline.t -> int * int
(** Re-run every entry's parent flow through the (possibly updated) pipeline
    and evict entries whose regenerated match/action differ (paper
    section 4.3.1).  Returns [(evicted, work)] where [work] is the total
    number of table lookups performed — the cost the paper's section 6.3.6
    compares against Gigaflow's sub-traversal revalidation. *)

val entries_fmatches : t -> Gf_flow.Fmatch.t list
(** Current entry matches (diagnostics / tests). *)
