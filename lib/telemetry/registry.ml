(* Mergeable metric registry: counters, gauges and latency histograms keyed
   by (name, labels).  Lookup is O(metrics) — instrumented code is expected
   to resolve its metric handles once (at datapath creation) and mutate the
   returned refs directly, so the registry itself is never on the per-packet
   path. *)

type labels = (string * string) list

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of Histogram.t

type entry = {
  name : string;
  labels : labels;
  help : string;
  metric : metric;
}

type t = { mutable entries : entry list (* reverse registration order *) }

let create () = { entries = [] }

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let find t name labels =
  let labels = normalize_labels labels in
  List.find_opt
    (fun e -> String.equal e.name name && e.labels = labels)
    t.entries

let register t name labels help metric =
  t.entries <-
    { name; labels = normalize_labels labels; help; metric } :: t.entries;
  metric

let counter t ?(labels = []) ?(help = "") name =
  match find t name labels with
  | Some { metric = Counter r; _ } -> r
  | Some _ -> invalid_arg ("Registry.counter: " ^ name ^ " is not a counter")
  | None -> (
      match register t name labels help (Counter (ref 0)) with
      | Counter r -> r
      | _ -> assert false)

let gauge t ?(labels = []) ?(help = "") name =
  match find t name labels with
  | Some { metric = Gauge r; _ } -> r
  | Some _ -> invalid_arg ("Registry.gauge: " ^ name ^ " is not a gauge")
  | None -> (
      match register t name labels help (Gauge (ref 0.0)) with
      | Gauge r -> r
      | _ -> assert false)

let histogram t ?(labels = []) ?(help = "") ?lo ?hi ?sub name =
  match find t name labels with
  | Some { metric = Histogram h; _ } -> h
  | Some _ -> invalid_arg ("Registry.histogram: " ^ name ^ " is not a histogram")
  | None -> (
      match register t name labels help (Histogram (Histogram.create ?lo ?hi ?sub ())) with
      | Histogram h -> h
      | _ -> assert false)

let set_histogram t ?(labels = []) ?(help = "") name h =
  match find t name labels with
  | Some { metric = Histogram _; _ } ->
      (* Replace in place so re-exporting a run's metrics is idempotent. *)
      let labels = normalize_labels labels in
      t.entries <-
        List.map
          (fun e ->
            if String.equal e.name name && e.labels = labels then
              { e with metric = Histogram h }
            else e)
          t.entries
  | Some _ ->
      invalid_arg ("Registry.set_histogram: " ^ name ^ " is not a histogram")
  | None -> ignore (register t name labels help (Histogram h))

(* Registration order: oldest first (entries list is kept reversed). *)
let iter f t =
  List.iter
    (fun e -> f ~name:e.name ~labels:e.labels ~help:e.help e.metric)
    (List.rev t.entries)

(* Merge by (name, labels): counters and gauges add (shards own disjoint
   caches, so instantaneous gauges like occupancy sum), histograms merge
   exactly.  Metrics only [src] has seen are copied in. *)
let merge ~into src =
  List.iter
    (fun e ->
      match (e.metric, find into e.name e.labels) with
      | Counter r, Some { metric = Counter r'; _ } -> r' := !r' + !r
      | Gauge r, Some { metric = Gauge r'; _ } -> r' := !r' +. !r
      | Histogram h, Some { metric = Histogram h'; _ } ->
          Histogram.merge ~into:h' h
      | _, Some _ ->
          invalid_arg ("Registry.merge: metric kind mismatch for " ^ e.name)
      | Counter r, None -> ignore (register into e.name e.labels e.help (Counter (ref !r)))
      | Gauge r, None -> ignore (register into e.name e.labels e.help (Gauge (ref !r)))
      | Histogram h, None ->
          ignore (register into e.name e.labels e.help (Histogram (Histogram.copy h))))
    (List.rev src.entries)
