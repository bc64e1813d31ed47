(** Sub-traversal partition generation (paper section 4.2.2).

    A partition cuts a traversal of N lookups into at most K contiguous
    segments.  The paper's Disjoint Partitioning (DP) scores a segment by
    its length when the fields it consults form one overlapping group, and
    by 0 when the segment straddles a disjoint-field boundary; the optimal
    partition maximises the total score, which simultaneously (1) separates
    disjoint field sets into different cache tables — maximising
    cross-product rule coverage — and (2) prefers longer sub-traversals —
    minimising entries per traversal.

    When K < the number of natural field groups, some boundary-crossing
    merge is unavoidable and several partitions tie on score.  Ties are
    broken by the total number of match bits carried by incoherent
    segments (fewer constrained bits ⇒ the merged entry is shared by more
    flows), and then by segment count.

    Two baseline schemes are provided for the paper's Fig. 16 ablation:
    random contiguous cuts (RND) and the ideal 1-1 mapping (one segment per
    vSwitch table). *)

type scheme =
  | Disjoint  (** the paper's DP algorithm *)
  | Random  (** uniformly random contiguous partition into <= K segments *)
  | One_to_one
      (** one segment per lookup; if the traversal is longer than K the tail
          collapses into the final segment *)

type segment = { first : int; last : int }
(** Inclusive step-index range within the traversal. *)

val segment_length : segment -> int

val step_fieldsets : Gf_pipeline.Traversal.t -> Gf_flow.Field.Set.t array
(** The consulted-field set of each lookup — the input to {!coherent}. *)

val coherent : Gf_flow.Field.Set.t array -> first:int -> last:int -> bool
(** True when the segment's steps form a connected overlap graph (an edge
    joins two steps sharing a consulted field): the segment does not cross a
    disjoint-field boundary. Empty-field steps (pure default hops) connect
    to anything — they constrain no header bits.  The reference definition:
    the partition tables compute the same predicate incrementally. *)

val evaluate : Gf_pipeline.Traversal.t -> segment list -> int * int
(** [(score, penalty)]: score = sum over segments of (length if coherent
    else 0); penalty = total wildcard bits of incoherent segments. *)

val partition :
  ?rng:Gf_util.Rng.t ->
  scheme ->
  max_segments:int ->
  Gf_pipeline.Traversal.t ->
  segment list
(** Cut the traversal into 1..max_segments contiguous segments covering all
    steps.  Raises [Invalid_argument] on an empty traversal, when
    [max_segments] < 1, or for [Random] without [rng].
    For [Disjoint] the result maximises score, then minimises penalty, then
    segment count.  O(N^2 K) dynamic program (N <= 256). *)

val brute_force_best : Gf_pipeline.Traversal.t -> max_segments:int -> int * int * int
(** Exhaustive search over all partitions: the lexicographically best
    (score, -penalty, -segments), returned as (score, penalty, segments).
    Exponential; only for property tests on small N. *)
