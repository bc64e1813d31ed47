(** A traversal: the complete trace of one flow through the vSwitch pipeline.

    This is the paper's [<T, F, W>] vector (Fig. 5b): the sequence of tables
    looked up, the flow state before/after each lookup, and the wildcard of
    header bits each lookup consulted.  Traversals are produced by
    {!Executor} and consumed by the Megaflow cache (collapse to one rule) and
    by Gigaflow (partition into sub-traversals). *)

type step = {
  table_id : int;
  outcome : [ `Rule of Ofrule.t | `Table_miss ];
      (** Which rule matched, or the table's default (miss) path. *)
  action : Action.t;  (** The action that was applied at this step. *)
  wildcard : Gf_flow.Mask.t;
      (** Raw consulted bits of the {e current} flow state at lookup time.
          Rule generation re-bases these onto a segment's entry flow by
          discounting fields overwritten earlier in the segment. *)
  flow_in : Gf_flow.Flow.t;
  flow_out : Gf_flow.Flow.t;
  probes : int;  (** TSS tuples probed (classifier cost model input). *)
}

type t = {
  input : Gf_flow.Flow.t;
  steps : step array;  (** Non-empty. *)
  terminal : Action.terminal;
  output : Gf_flow.Flow.t;  (** Flow state after the last step. *)
}

val length : t -> int
(** Number of table lookups ([N] in the paper). *)

val path : t -> int list
(** The table-id sequence; two traversals with equal paths are the same
    "unique traversal" in the sense of the paper's Table 1. *)

val step_fields : step -> Gf_flow.Field.Set.t
(** Fields with at least one consulted bit in this step. *)

val megaflow_wildcard : t -> Gf_flow.Mask.t
(** The union of all step wildcards re-based onto the input flow: bits of a
    field consulted after the field was overwritten by an earlier action do
    not constrain the input and are excluded.  This is the wildcard of the
    single-rule (Megaflow) collapse of the traversal. *)

val segment_wildcard : t -> first:int -> last:int -> Gf_flow.Mask.t
(** Same re-basing restricted to steps [first..last] (inclusive), relative to
    the flow entering step [first].  [megaflow_wildcard t] equals
    [segment_wildcard t ~first:0 ~last:(length t - 1)]. *)

val wildcard_of_steps : step array -> first:int -> last:int -> Gf_flow.Mask.t
(** {!segment_wildcard} on a bare step array (used by revalidation, which
    re-traces only a prefix and has no complete traversal).  Raises
    [Invalid_argument] unless [0 <= first <= last < Array.length steps]. *)

val commit_of_steps : step array -> first:int -> last:int -> (Gf_flow.Field.t * int) list
(** {!segment_commit} on a bare step array; the same range check as
    {!wildcard_of_steps}. *)

val segment_commit : t -> first:int -> last:int -> (Gf_flow.Field.t * int) list
(** The paper's "commit" (section 4.2.3): the header rewrites a cache entry
    must replay for steps [first..last].  Computed as the composition of the
    segment's actual set-field actions (last writer per field wins) rather
    than a before/after flow diff, so rewrites to already-held values are
    preserved for other packets matching the entry.  Listed in field-index
    order. *)

val pp : Format.formatter -> t -> unit
