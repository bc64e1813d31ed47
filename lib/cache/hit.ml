(** A cache hit: the forwarding decision and the packet's headers after
    the cached rewrites.  Every cache returns this one record — the
    Microflow (EMC), the cuckoo table, the Megaflow, the Gigaflow LTM and
    the datapath's {!Gf_sim.Cache_level} over them. *)

type t = { terminal : Gf_pipeline.Action.terminal; out_flow : Gf_flow.Flow.t }
