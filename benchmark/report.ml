(* Metrics, their summaries, and every output format: the human table,
   the one-line result the run protocol ends with, the detail JSON that
   [--out] writes, [BENCHMARK.json] itself, and [--compare]. *)

module Json = Gf_util.Json

type kind =
  | E2e  (** end-to-end, in the result line of an untraced run *)
  | Layer  (** per-layer, in the result line of a traced run *)
  | Extra  (** printed and written to [--out] only *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  kind : kind;
  modelled : bool;  (** a pure function of the seed *)
  samples : float array;
}

let metric ?(modelled = false) kind name unit better samples =
  { name; unit; better; kind; modelled; samples }

let one ?modelled kind name unit better v = metric ?modelled kind name unit better [| v |]

type summary = { median : float; q1 : float; q3 : float; n : int }

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method) computes them, so spreads read the same here as in
   any script over the printed values. *)
let summary xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n = 0 then { median = nan; q1 = nan; q3 = nan; n }
  else if n = 1 then { median = d.(0); q1 = d.(0); q3 = d.(0); n }
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    { median = Gf_util.Stats.median d; q1 = q 1; q3 = q 3; n }
  end

let value m = (summary m.samples).median

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;  (** oracle-checked decisions *)
  failed : int;
  checks : (string * bool) list;
  metrics : metric list;
}

let correct r =
  r.attempted > 0
  && r.failed = 0
  && List.for_all snd r.checks
  && List.for_all (fun m -> Float.is_finite (value m)) r.metrics

let in_result_line r m = m.kind = if r.traced then Layer else E2e

let print_human r =
  Printf.printf "== %s, seed %d, %s\n" r.workload r.seed (if r.traced then "traced" else "untraced");
  List.iter (fun (name, ok) -> Printf.printf "  check %-44s %s\n" name (if ok then "ok" else "FAILED")) r.checks;
  Printf.printf "  check %-44s %d of %d failed\n" "decisions match Executor.terminal_of" r.failed
    r.attempted;
  List.iter
    (fun m ->
      let s = summary m.samples in
      let tag = match m.kind with E2e -> "e2e" | Layer -> "layer" | Extra -> "" in
      if s.n > 1 then
        Printf.printf "  %-5s %-38s %14.6g %-7s [%.6g .. %.6g] n=%d\n" tag m.name s.median m.unit
          s.q1 s.q3 s.n
      else Printf.printf "  %-5s %-38s %14.6g %s\n" tag m.name s.median m.unit)
    r.metrics

(* The protocol's last line: exactly the end-to-end metrics (untraced) or
   the per-layer metrics (traced), every digit ("%.17g" round-trips a
   double).  A non-finite value reads as 0 and the run as incorrect. *)
let result_line r =
  let metrics =
    List.filter_map
      (fun m ->
        if in_result_line r m then
          let v = value m in
          Some
            (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
               (if Float.is_finite v then v else 0.0)
               m.unit)
        else None)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed (String.concat ", " metrics)

(* ----------------------------- detail JSON ----------------------------- *)

let better_name = function Higher -> "higher" | Lower -> "lower"

let detail_of r =
  let f v = Json.Float v in
  ( r.workload,
    Json.Obj
      [
        ("seed", Json.Int r.seed);
        ("traced", Json.Bool r.traced);
        ("correct", Json.Bool (correct r));
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 let s = summary m.samples in
                 ( m.name,
                   Json.Obj
                     [
                       ("unit", Json.Str m.unit);
                       ("better", Json.Str (better_name m.better));
                       ("modelled", Json.Bool m.modelled);
                       ("median", f s.median);
                       ("q1", f s.q1);
                       ("q3", f s.q3);
                       ("n", Json.Int s.n);
                     ] ))
               r.metrics) );
      ] )

let read_json file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string text with Ok j -> j | Error e -> failwith (file ^ ": " ^ e)

let write_json file j =
  let oc = open_out file in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc

let fields j = match j with Some (Json.Obj kv) -> kv | _ -> []
let str k j = Option.bind (Json.member k j) Json.to_string_opt
let flt k j = Option.bind (Json.member k j) Json.to_float_opt

(* ---------------------------- BENCHMARK.json ---------------------------- *)

type spec_metric = { s_name : string; s_unit : string; s_better : string; s_bound : float }

type spec = { s_workloads : string list; s_e2e : spec_metric list; s_layer : spec_metric list }

let read_spec file =
  let j = read_json file in
  let list k = Option.value ~default:[] (Option.bind (Json.member k j) Json.to_list_opt) in
  let metric e =
    {
      s_name = Option.value ~default:"" (str "name" e);
      s_unit = Option.value ~default:"" (str "unit" e);
      s_better = Option.value ~default:"" (str "better" e);
      s_bound = Option.value ~default:0.0 (flt "bound" e);
    }
  in
  {
    s_workloads = List.filter_map (str "name") (list "workloads");
    s_e2e = List.map metric (list "end_to_end");
    s_layer = List.map metric (list "per_layer");
  }

(* ------------------------------- compare ------------------------------- *)

(* B against A for one metric, with [bound] as BENCHMARK.json gives it,
   except that modelled metrics get 0: on one seed they repeat bit for
   bit, so any change is a change of the model.  [same]: identical
   medians.  [worse]:
   B's median is worse by more than the bound, unless A's own quartile
   spread is wider than the bound and the quartile ranges overlap
   ([unresolved]).  [better]: B's median is better by more than A's
   spread and the quartile ranges do not overlap. *)
let verdict ~better ~bound a b =
  if a.median = b.median then "same"
  else begin
    let sign = if better = "higher" then 1.0 else -1.0 in
    let scale = Float.abs a.median in
    let gain = sign *. (b.median -. a.median) /. scale in
    let spread = (a.q3 -. a.q1) /. scale in
    let disjoint = b.q1 > a.q3 || b.q3 < a.q1 in
    if gain < -.bound && (disjoint || spread <= bound) then "worse"
    else if gain > spread && gain > 0.0 && (disjoint || a.q1 = a.q3) then "better"
    else "unresolved"
  end

let compare_files ~spec a_file b_file =
  let bound name j =
    match List.find_opt (fun m -> m.s_name = name) spec.s_e2e with
    | Some m when Json.member "modelled" j <> Some (Json.Bool true) -> m.s_bound
    | Some _ | None -> 0.0
  in
  let workloads f = fields (Json.member "workloads" (read_json f)) in
  let a = workloads a_file and b = workloads b_file in
  let sum j = { median = Option.value ~default:nan (flt "median" j); q1 = Option.value ~default:nan (flt "q1" j);
                q3 = Option.value ~default:nan (flt "q3" j); n = 0 } in
  Printf.printf "%-12s %-36s %-7s %26s %26s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1 .. q3]" "B median [q1 .. q3]" "delta" "verdict";
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (w, wa) ->
      match List.assoc_opt w b with
      | None -> ()
      | Some wb ->
          let mb = fields (Json.member "metrics" wb) in
          List.iter
            (fun (name, ja) ->
              match List.assoc_opt name mb with
              | None -> ()
              | Some jb ->
                  let sa = sum ja and sb = sum jb in
                  let better = Option.value ~default:"lower" (str "better" ja) in
                  let v = verdict ~better ~bound:(bound name ja) sa sb in
                  Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v));
                  let cell s = Printf.sprintf "%.5g [%.4g .. %.4g]" s.median s.q1 s.q3 in
                  let delta =
                    if sa.median = 0.0 then "n/a"
                    else Printf.sprintf "%+.2f%%" (100.0 *. (sb.median -. sa.median) /. Float.abs sa.median)
                  in
                  Printf.printf "%-12s %-36s %-7s %26s %26s %8s  %s\n" w name
                    (Option.value ~default:"" (str "unit" ja))
                    (cell sa) (cell sb) delta v)
            (fields (Json.member "metrics" wa)))
    a;
  Printf.printf "verdicts:%s\n"
    (String.concat ""
       (List.map
          (fun v -> Printf.sprintf " %s=%d" v (Option.value ~default:0 (Hashtbl.find_opt counts v)))
          [ "better"; "worse"; "same"; "unresolved" ]));
  Option.value ~default:0 (Hashtbl.find_opt counts "worse")
