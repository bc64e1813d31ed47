(** Prometheus text exposition.

    Histograms are exposed Prometheus-summary-style (pre-computed
    p50/p90/p99/p99.9 + [_sum] + [_count]) — log-linear buckets would need
    hundreds of [le] series each, and the quantiles are what the scrape is
    for. *)

val prometheus : Registry.t -> string
(** Render a registry snapshot in Prometheus text exposition format. *)

