(** Declarative pipeline specifications.

    The five real-world pipelines of the paper's Table 1 are described as
    data: a list of tables (with the fields each is configured to match) and
    a list of {b traversal templates} — the unique table-lookup sequences the
    pipeline exhibits, with the subset of fields each hop matches.  The
    workload generator (Pipebench) instantiates rules along these templates;
    {!instantiate} builds the executable pipeline skeleton. *)

type table_spec = {
  table_id : int;
  table_name : string;
  fields : Gf_flow.Field.t list;
      (** All fields this table may match on (any template). *)
}

type hop = {
  table : int;
  hop_fields : Gf_flow.Field.t list;
      (** Fields matched at this hop; must be a subset of the table's
          declared fields. *)
}

type traversal_spec = { hops : hop list }
(** Table ids along a template must be strictly increasing (feed-forward),
    which guarantees termination; the final hop's rules carry the terminal
    action. *)

type spec = {
  spec_name : string;
  entry_table : int;
  tables : table_spec list;
  traversals : traversal_spec list;
}

val validate : spec -> (unit, string) result
(** Checks id uniqueness, entry presence, hop/table consistency and
    feed-forward ordering. *)

val instantiate : spec -> Pipeline.t
(** Build the pipeline skeleton: every declared table, no rules.  Each
    table's miss action is goto-next-declared-table; the last table's miss
    drops.  Raises [Invalid_argument] if [validate] fails. *)

val unique_paths : spec -> int list list
(** The distinct table-id sequences among the templates (the "Traversals"
    column of the paper's Table 1). *)
