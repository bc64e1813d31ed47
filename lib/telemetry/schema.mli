(** The telemetry line formats, declared once.

    Every JSONL line the simulator writes is built by {!line}, and
    [gigaflow-sim telemetry-check] validates with {!check_jsonl} and
    {!check_chrome}, against one table of per-type required fields.  A
    stream holds one family's lines — telemetry, loadtest report or
    profile — opened by its meta line (which carries [schema_version])
    and, for the latter two, closed by its summary line. *)

type kind =
  | Meta | Sample | Event
  | Loadtest_meta | Loadtest_window | Controller_action | Loadtest_summary
  | Profile_meta | Profile_level | Profile_table | Profile_depth | Profile_cause
  | Profile_summary

val version : int
(** Written as [schema_version] on each stream's opening line. *)

val line : kind -> (string * Gf_util.Json.t) list -> Gf_util.Json.t
(** The object [{"type": <kind's tag>, ...fields}]; an opening kind also
    gets [schema_version] right after the tag. *)

val write_line : out_channel -> Gf_util.Json.t -> unit
(** One JSONL record: the value and a newline. *)

val params :
  pipeline:string -> ?locality:string -> hierarchy:string -> ?engine:string -> seed:int ->
  ?flows:int -> ?combos:int -> ?sample_every:int -> ?zipf_s:float -> ?trace:string ->
  ?controller:string -> unit -> (string * Gf_util.Json.t) list
(** The run parameters a command puts on its opening line, in one fixed
    field order. *)

type summary

val check_jsonl : string list -> (summary, int * string) result
(** Validate a stream given as its lines (blank lines skipped).  Each
    line must parse and carry a known ["type"] with that type's fields
    and kinds.  The first line fixes the family and must be its meta
    line at {!version}; no line of another family may follow; the
    summary comes last; the family's required lines must be present; a
    profile's census must reconcile with its misses and with the sum of
    its [profile_cause] counts.  [Error (line_number, message)] names the
    first violation. *)

val count : summary -> kind -> int
(** Lines of [kind] in the stream. *)

val describe : summary -> string
(** The line counts telemetry-check prints, e.g.
    ["1 meta, 6 samples, 3680 events"]. *)

val check_chrome : string -> (int, string) result
(** Validate a chrome://tracing document: a [traceEvents] array whose
    events carry string [name]/[ph] and numeric [ts]/[dur]/[pid]/[tid].
    [Ok n] counts the events. *)
