(** A NuevoMatch-style learned classifier (Rashelbach et al., SIGCOMM'20 /
    NSDI'22), reimplemented in the RMI spirit.

    Entries are split into {b independent sets} (iSets): groups whose
    projections onto a selected index field have pairwise non-overlapping
    value envelopes.  Each iSet is sorted by envelope start and indexed by a
    learned CDF approximation (a bucketised piecewise model playing the role
    of RQ-RMI) that predicts the array position of a key with bounded local
    search.  Entries that fit no iSet fall back to a small TSS remainder, and
    dynamic inserts land in a TSS delta that triggers a retrain once it grows
    past a fraction of the static structure — mirroring the original's
    train-then-serve design.

    Lookup cost is O(#iSets + local search + remainder tuples), i.e. nearly
    constant and independent of the number of rules, which is exactly the
    property Fig. 17 of the Gigaflow paper exercises.  Hit/miss volumes are
    unaffected (same matches as TSS/linear, verified by property tests). *)

include Classifier_intf.S

val iset_count : 'a t -> int
(** Number of trained iSets (0 before first training). *)

val delta_size : 'a t -> int
(** Entries currently in the untrained delta. *)

val remainder_size : 'a t -> int
(** Trained entries that fit no iSet and fell back to the TSS remainder —
    the structure's cost driver (its tuples are probed on every lookup). *)

val retrain : 'a t -> unit
(** Force retraining now (otherwise it happens automatically when the delta
    outgrows the trained structure). *)
