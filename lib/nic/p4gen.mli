(** P4 code generation for the LTM SmartNIC pipeline.

    The paper's prototype (section 5) is ~350 lines of P4 compiled with
    P4SDNet to the Alveo U250: K homogeneous match-action tables, each doing
    an exact match on the table tag and ternary matches on the ten header
    fields of Fig. 6.  This module emits that program for any cache
    geometry, so the configuration used in simulation can be carried to a
    real P4 target (and so the artifact includes the hardware half of the
    design in reviewable form). *)

val emit : tables:int -> table_capacity:int -> string
(** The complete P4_16 program: headers, parser, [tables] LTM stages wired
    in sequence with tag gating, deparser, and the miss-to-slowpath punt
    path.  Deterministic text (suitable for golden tests). *)
