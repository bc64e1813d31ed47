(** A single vSwitch pipeline rule: priority, ternary match, action.

    Rules live inside an {!Oftable}; ids are unique within a pipeline so
    traversals and revalidation can refer to the exact rule matched. *)

type t = private {
  id : int;
  priority : int;
  fmatch : Gf_flow.Fmatch.t;
  action : Action.t;
}

val v : id:int -> priority:int -> fmatch:Gf_flow.Fmatch.t -> action:Action.t -> t

val equal : t -> t -> bool
(** Structural equality (including id). *)

val same_behaviour : t -> t -> bool
(** Equality ignoring id: same priority, match and action.  Used by
    revalidation to decide whether a changed table still treats a flow
    identically. *)

val pp : Format.formatter -> t -> unit
