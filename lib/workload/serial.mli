(** Plain-text serialization of workloads, so generated rulesets, flow sets
    and traces can be saved, inspected, diffed and replayed outside the
    process that generated them (pipelines themselves serialize via
    [Gf_pipeline.Ofp_text]).

    Formats are line-oriented and versioned by a header line; all functions
    are inverses of each other (round-trip tested). *)

val flows_to_string : Gf_flow.Flow.t array -> string
(** One flow per line: ten hexadecimal field values in {!Gf_flow.Field}
    index order. *)

val flows_of_string : string -> (Gf_flow.Flow.t array, string) result

val trace_to_string : Trace.t -> string
(** Header with the trace's flow table, every flow in it, then one
    [time flow_id] line per packet. *)

val trace_of_string : string -> (Trace.t, string) result

val save : path:string -> string -> unit
(** Write a serialized blob to a file. *)

val load : path:string -> (string, string) result
