(** A programmable vSwitch pipeline: an ordered collection of match-action
    tables with goto-based control flow (the slowpath the caches accelerate).

    The pipeline carries a monotonically increasing {b version}, bumped on
    every rule mutation; cache revalidation compares entry versions against
    it to know when consistency must be re-checked (paper section 4.3.1). *)

type t

val create : name:string -> entry:int -> Oftable.t list -> t
(** Table ids must be unique and include [entry]. *)

val entry : t -> int
val version : t -> int

val copy : t -> t
(** Independent replica for a parallel-replay domain: same tables, rules,
    version and unwildcard mode.  Each table is an {!Oftable.copy}: the
    built tuple index is shared read-only, so concurrent replays never
    race, and rule mutations on either side are not seen by the other.
    Call it from the domain that owns [t]: it builds [t]'s stale tables. *)

val set_unwildcard : t -> Oftable.unwildcard -> unit
(** Set every table's {!Oftable.unwildcard} mode; {!copy} keeps it. *)

val table : t -> int -> Oftable.t
(** Raises [Not_found] for an unknown table id. *)

val table_opt : t -> int -> Oftable.t option
val tables : t -> Oftable.t list
(** In increasing table-id order. *)

val table_count : t -> int
val rule_count : t -> int

val add_rule : t -> table:int -> Ofrule.t -> unit
(** Bumps the version. *)

val remove_rule : t -> table:int -> int -> bool
(** Bumps the version when a rule was removed. *)

val fresh_rule_id : t -> int
(** Allocates pipeline-unique rule ids. *)

val pp : Format.formatter -> t -> unit
