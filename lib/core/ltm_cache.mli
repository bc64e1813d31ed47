(** The Gigaflow LTM cache: K feed-forward LTM tables walked in order with
    tag gating (paper section 4.1).

    A packet enters with its tag set to the pipeline's entry table id.  Each
    LTM table is probed with (tag, headers); a match applies the rule's
    commit and tag update, a non-match passes the packet through unchanged
    (tag gating makes skipping safe — the example of the paper's Fig. 5c,
    where a rule in GF1 jumps straight to GF3).  The walk is a {b hit} iff
    the tag reaches the terminal state; otherwise the packet goes to the
    slowpath. *)

type t

val create : ?rng_seed:int -> Config.t -> t
(** [create config] builds an empty cache; [rng_seed] feeds the [Random]
    replacement policy's victim choice. *)

val config : t -> Config.t

val set_policy : t -> Gf_cache.Evict.policy -> unit
(** Swap the replacement policy online (the policy is consulted per
    install, so this takes effect on the next infeasible plan); geometry
    and the rest of the config are untouched. *)

val last_depth : t -> int
(** Tables matched by the most recent {!lookup} or replay: the
    tag-chain reuse depth on a hit, the partial-prefix progress on a miss
    (non-zero means the chain dead-ended — a tag-chain stall).  Read by
    the traversal tracer and to resolve miss causes; never feeds back
    into cache behaviour. *)

val occupancy : t -> int
(** Total entries across all tables. *)

val table_occupancies : t -> int array

val available_tables : t -> int
(** Number of non-full tables — the partitioner's segment budget for the
    next installation (paper section 4.2.1's GF set). *)

val lookup :
  t -> now:float -> entry_tag:int -> Gf_flow.Flow.t -> Gf_cache.Hit.t option * int
(** [entry_tag] is the pipeline's entry table id.  Returns the hit (if the
    walk completed) and total work units. Touches matched entries. *)

val lookup_replay :
  t ->
  now:float ->
  entry_tag:int ->
  Gf_flow.Flow.t ->
  Gf_cache.Hit.t option * int * (now:float -> int)
(** {!lookup}, plus a closure that replays that walk's per-packet effects
    — the recency touches on the matched entries and {!last_depth} — and
    returns its work, or -1 once stale (and forever after).  The cache
    keeps no per-flow state: holding the closure is the caller's memo.

    {b Validity.}  While no install, eviction or expiry has changed any
    table's entry set since the replay last ran, it holds as it is.  Once
    one has, it still holds if, for every table the walk visited:
    - the entry the walk matched there, if any, is still stored; and
    - no entry inserted into the classifier of the tag the walk probed
      there since then matches the flow as it reached that table and beats
      the matched entry ({!Gf_classifier.Entry.better}); with no match,
      any matching insert counts.  A tag with no classifier then counts
      every insert into the classifier it has now.
    Then the walk's hit, matched entries and depth are exactly a fresh
    {!lookup}'s, and its work is recounted from the visited classifiers'
    tuple maxima ({!Gf_classifier.Tss.probes_for}).  Each tag's classifier
    logs its last 256 inserts; a replay further behind than that is
    stale.  A call allocates nothing, re-check included (bar the one-off
    noted at {!Ltm_table.revisit}). *)

val install : t -> now:float -> Ltm_rule.t list -> Gf_cache.Install.t
(** Install the rules of one partitioned traversal, in segment order.  Each
    segment reuses an identical existing entry when one exists in a
    feasible table (sharing), otherwise takes a slot in the first feasible
    non-full table.  All-or-nothing on the rules themselves: on
    infeasibility, no segment is installed.

    When the plan is infeasible and [Config.policy] is an evicting policy,
    entries are evicted (bounded, one per replanning round) from the full
    tables blocking the first unplaceable segment until the plan succeeds
    or no tag-chain-safe victim remains.  Victims are restricted to safe
    entries — ones whose removal cannot strand a dependent continuation
    in a later table (their chain terminates, or nothing downstream
    consumes the tag they produce).

    Returns [Installed] with the fresh, shared and pressure-evicted
    counts, or [Rejected] when no feasible placement remains, with the
    victims evicted while replanning the plan that still failed. *)

val pick_victim : t -> lo:int -> hi:int -> (int * Ltm_table.stored) option
(** The pressure victim {!install} evicts when the first unplaceable
    segment's feasible positions [lo..hi] are all full: a tag-chain-safe
    entry of a full table there, chosen by [Config.policy] — the coldest
    by (completion recency, position, key) for [Lru], by (priority, then
    the same) for [Priority_aware], a seeded uniform draw for [Random]
    (consuming one draw whenever a safe entry exists), none for [Reject].
    Returns the victim's table position with it; removes nothing. *)

val stranded : t -> entry_tags:int list -> int
(** Number of entries unreachable by any walk starting from one of
    [entry_tags] — stranded continuations whose predecessor chain is
    gone.  The safe-victim rule keeps this at 0 (checked by tests);
    idle expiry can transiently strand entries, exactly as in the
    pre-policy behaviour. *)

val expire : t -> now:float -> max_idle:float -> int
(** Evict entries idle longer than [max_idle]; returns how many.  This is
    the selective sub-traversal eviction of paper section 4.3.2. *)

val revalidate : t -> Gf_pipeline.Pipeline.t -> int * int
(** Re-trace every entry's parent flow from its tagged vSwitch table for the
    entry's sub-traversal length and evict entries whose regenerated
    rule differs (paper section 4.3.1).  Returns [(evicted, work)] with
    [work] = total table lookups re-executed; sub-traversals being shorter
    than full traversals is what makes this ~2x cheaper than Megaflow
    revalidation (paper section 6.3.6). *)

val sharing_histogram : t -> (int * int) list
(** [(shares, entry count)] pairs, sorted by [shares] — data behind the
    paper's Fig. 11. *)

val mean_sharing : t -> float
(** Average number of installations resolved per entry. *)

val iter_rules : t -> (table:int -> Ltm_table.stored -> unit) -> unit
