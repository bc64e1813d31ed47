(** The outcome of offering one entry (or one partitioned traversal) to a
    cache.  Every cache's [install] returns this one type — the Microflow
    (EMC), the cuckoo table, the Megaflow and the Gigaflow LTM — and the
    datapath's {!Gf_sim.Cache_level} maps it into its install report. *)

type t =
  | Installed of { fresh : int; shared : int; pressure_evicted : int }
      (** [fresh] new entries written; [shared] segments satisfied by
          existing identical entries (Gigaflow sub-traversal sharing;
          always 0 elsewhere); [pressure_evicted] entries removed under
          capacity pressure to admit this install (always 0 under the
          [Reject] policy). *)
  | Rejected of { pressure_evicted : int }
      (** The cache is full and its policy could not make room;
          [pressure_evicted] entries were evicted while it tried (only the
          LTM, which evicts one victim per replanning round, ever reports
          more than 0). *)
