(** A match-action table in the vSwitch pipeline.

    Lookup uses Tuple Space Search internally (rules grouped by mask), which
    also yields the two signals the caching layers need:

    - the {b consulted wildcard}: the union of the masks of every tuple that
      had to be probed before the winner was known.  Caching these bits is
      exactly OVS's Megaflow unwildcarding discipline and implements the
      paper's rule-dependency management (section 4.2.3): a cached entry
      carrying the consulted bits can never shadow a higher-priority rule.
    - the {b probe count}: how many tuples were searched, which feeds the
      software classifier cost model (TSS cost is O(#masks)).

    Tables also declare the {b field set} they are configured to match on;
    the partitioner uses declared fields to find disjoint boundaries. *)

type t

type lookup_result = {
  outcome : [ `Hit of Ofrule.t | `Miss ];
  consulted : Gf_flow.Mask.t;
      (** Union of probed tuple masks; on a miss this covers every tuple, so
          a cached miss-entry is also dependency-safe. *)
  probes : int;  (** Number of tuples probed. *)
}

val create :
  id:int -> name:string -> match_fields:Gf_flow.Field.Set.t -> miss:Action.t -> t
(** [miss] is the table's default action, applied when no rule matches. *)

val id : t -> int
val name : t -> string
val miss_action : t -> Action.t
val size : t -> int
val rules : t -> Ofrule.t list
(** In decreasing (priority, then increasing id) order. *)

val add_rule : t -> Ofrule.t -> unit
(** Raises [Invalid_argument] if a rule with the same id is present. *)

val remove_rule : t -> int -> bool
(** [remove_rule t id] returns whether a rule was removed. *)

type unwildcard = [ `Minimal | `Full ]
(** How {!lookup} builds the consulted wildcard.  [`Minimal] (the default
    of every new table) is the paper's section 4.2.3 discipline: the
    winner's mask plus just enough exclusion bits per dangerous tuple.
    [`Full] is the naive OVS-style union of every probed tuple mask —
    sound, but it makes cache entries nearly flow-specific and destroys
    sub-traversal sharing (quantified by the ablation benchmark). *)

val set_unwildcard : t -> unwildcard -> unit
(** A per-table setting: tables (and pipelines, see
    {!Pipeline.set_unwildcard}) with different modes can serve lookups
    side by side, from different domains too. *)

val copy : t -> t
(** Independent replica owning its rule set and lazy-rebuild flag — safe
    to use from another domain while the original keeps serving lookups.
    Builds [t]'s tuple index if stale, then shares it: lookups only read
    it, and a rule change on either side rebuilds fresh tuples for that
    side alone.  Keeps the unwildcard mode.  See {!Pipeline.copy}. *)

val lookup : t -> Gf_flow.Flow.t -> lookup_result
(** Highest-priority matching rule; ties broken toward the lowest rule id
    (deterministic, mirroring OVS's stable behaviour). *)

val pp : Format.formatter -> t -> unit
