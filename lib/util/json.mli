(** Minimal JSON value type, compact printer and parser.

    Backs the telemetry line formats: [Gf_telemetry.Schema] builds every
    JSON Lines record with it and parses them back to validate.  The
    printer emits [null] for non-finite floats so every emitted line stays
    machine-parseable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object field lookup ([None] on non-objects and missing keys). *)

val to_float_opt : t -> float option
(** Numeric value as float ([Int] widens). *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
