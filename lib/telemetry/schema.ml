(* The telemetry line formats, declared once: the emitters build their
   lines through [line] and telemetry-check validates against the same
   tables.  A stream holds one family's lines (telemetry, loadtest report
   or profile), opened by its meta line and, for the latter two, closed
   by its summary line. *)

module J = Gf_util.Json

type kind =
  | Meta | Sample | Event
  | Loadtest_meta | Loadtest_window | Controller_action | Loadtest_summary
  | Profile_meta | Profile_level | Profile_table | Profile_depth | Profile_cause
  | Profile_summary

let all =
  [ Meta; Sample; Event; Loadtest_meta; Loadtest_window; Controller_action;
    Loadtest_summary; Profile_meta; Profile_level; Profile_table; Profile_depth;
    Profile_cause; Profile_summary ]

let version = 1

type stream = Telemetry | Loadtest | Profile

(* [Int] must be a JSON integer, [Num] any number, [Rows] a list of
   objects each carrying the given fields. *)
type field = Int | Num | Str | Bool | List | Rows of (string * field) list

(* Every line type's tag, stream and required fields (an opening line
   also requires [schema_version], see [fields]).  Emitters may add
   fields: run parameters, recorder counters. *)
let spec = function
  | Meta -> ("meta", Telemetry, [ ("samples", Int) ])
  | Sample ->
      ( "sample", Telemetry,
        [ ("packet", Int); ("time", Num); ("hw_hits", Int); ("sw_hits", Int);
          ("slowpaths", Int); ("hw_hit_rate", Num); ("mean_us", Num); ("p50_us", Num);
          ("p90_us", Num); ("p99_us", Num); ("p999_us", Num);
          ( "levels",
            Rows
              [ ("level", Str); ("tier", Str); ("hits", Int); ("misses", Int);
                ("hit_rate", Num); ("occupancy", Int); ("p50_us", Num);
                ("p99_us", Num) ] ) ] )
  | Event ->
      ( "event", Telemetry,
        [ ("seq", Int); ("packet", Int); ("time", Num); ("level", Str); ("kind", Str);
          ("latency_us", Num); ("count", Int) ] )
  | Loadtest_meta ->
      ( "loadtest_meta", Loadtest,
        [ ("commit", Str); ("preset", Str); ("engine", Str); ("rate_pps", Num);
          ("warmup", Int); ("window", Int); ("windows", Int); ("queue_budget_us", Num);
          ("slo_p50_us", Num); ("slo_p99_us", Num); ("slo_p999_us", Num);
          ("slo_drop_rate", Num); ("slo_hw_hit_rate", Num) ] )
  | Loadtest_window ->
      ( "loadtest_window", Loadtest,
        [ ("index", Int); ("offered", Int); ("processed", Int); ("dropped", Int);
          ("drop_rate", Num); ("mean_us", Num); ("p50_us", Num); ("p99_us", Num);
          ("p999_us", Num); ("hw_hit_rate", Num); ("truncated", Bool);
          ("violations", List) ] )
  | Controller_action ->
      ( "controller_action", Loadtest,
        [ ("window", Int); ("knob", Str); ("level", Str); ("from", Str); ("to", Str);
          ("reason", Str) ] )
  | Loadtest_summary ->
      ( "loadtest_summary", Loadtest,
        [ ("pass", Bool); ("windows", Int); ("truncated_windows", Int);
          ("total_offered", Int); ("total_processed", Int); ("total_dropped", Int);
          ("violations", Int) ] )
  | Profile_meta ->
      ( "profile_meta", Profile,
        [ ("sampled_packets", Int); ("spans", Int); ("levels", List) ] )
  | Profile_level ->
      ( "profile_level", Profile,
        [ ("level", Str); ("outcome", Str); ("spans", Int); ("cycles", Int) ] )
  | Profile_table ->
      ("profile_table", Profile, [ ("table", Int); ("visits", Int); ("cycles", Int) ])
  | Profile_depth -> ("profile_depth", Profile, [ ("depth", Int); ("spans", Int) ])
  | Profile_cause ->
      ("profile_cause", Profile, [ ("level", Str); ("cause", Str); ("count", Int) ])
  | Profile_summary ->
      ( "profile_summary", Profile,
        [ ("census_total", Int); ("total_misses", Int); ("reconciled", Bool) ] )

let profile_aggregates = [ Profile_level; Profile_table; Profile_depth; Profile_cause ]

(* Every stream's name, opening line, closing line and the lines it must
   hold ("no <what> found" unless one of the kinds occurs). *)
let rules = function
  | Telemetry -> ("telemetry", Meta, None, [ ("time-series samples", [ Sample ]) ])
  | Loadtest ->
      ( "loadtest", Loadtest_meta, Some Loadtest_summary,
        [ ("loadtest_window lines", [ Loadtest_window ]);
          ("loadtest_summary line", [ Loadtest_summary ]) ] )
  | Profile ->
      ( "profile", Profile_meta, Some Profile_summary,
        [ ("profile aggregate lines", profile_aggregates);
          ("profile_summary line", [ Profile_summary ]) ] )

let name k =
  let n, _, _ = spec k in
  n

let opens k =
  let _, stream, _ = spec k in
  let _, opener, _, _ = rules stream in
  opener = k

let fields k =
  let _, _, f = spec k in
  if opens k then ("schema_version", Int) :: f else f

(* ------------------------------- emit -------------------------------- *)

let line kind fields =
  let version = if opens kind then [ ("schema_version", J.Int version) ] else [] in
  J.Obj ((("type", J.Str (name kind)) :: version) @ fields)

let write_line oc json =
  output_string oc (J.to_string json);
  output_char oc '\n'

let params ~pipeline ?locality ~hierarchy ?engine ~seed ?flows ?combos ?sample_every
    ?zipf_s ?trace ?controller () =
  let str k = Option.map (fun v -> (k, J.Str v))
  and int k = Option.map (fun v -> (k, J.Int v)) in
  List.filter_map Fun.id
    [ str "pipeline" (Some pipeline); str "locality" locality;
      str "hierarchy" (Some hierarchy); str "engine" engine; int "seed" (Some seed);
      int "flows" flows; int "combos" combos; int "sample_every" sample_every;
      Option.map (fun z -> ("zipf_s", J.Float z)) zipf_s; str "trace" trace;
      str "controller" controller ]

(* ------------------------------ validate ----------------------------- *)

(* The first of [fields] that [json] lacks or mistypes. *)
let rec field_error fields json =
  List.find_map
    (fun (f, kind) ->
      match (J.member f json, kind) with
      | None, _ -> Some (Printf.sprintf "missing field %S" f)
      | Some (J.Int _), (Int | Num)
      | Some (J.Float _), Num
      | Some (J.Str _), Str
      | Some (J.Bool _), Bool
      | Some (J.List _), List ->
          None
      | Some (J.List rows), Rows row ->
          List.find_mapi
            (fun i r -> Option.map (Printf.sprintf "%s[%d]: %s" f i) (field_error row r))
            rows
      | Some _, _ -> Some (Printf.sprintf "field %S has the wrong type" f))
    fields

type summary = { stream : stream; counts : (kind, int) Hashtbl.t; census : int }

let count s k = Option.value ~default:0 (Hashtbl.find_opt s.counts k)

let describe s =
  let c = count s in
  match s.stream with
  | Telemetry ->
      Printf.sprintf "%d meta, %d samples, %d events" (c Meta) (c Sample) (c Event)
  | Loadtest ->
      Printf.sprintf "%d loadtest meta, %d windows, %d summary, %d controller actions"
        (c Loadtest_meta) (c Loadtest_window) (c Loadtest_summary) (c Controller_action)
  | Profile ->
      Printf.sprintf "%d profile meta, %d aggregate lines, census %d reconciled"
        (c Profile_meta)
        (List.fold_left (fun acc k -> acc + c k) 0 profile_aggregates)
        s.census

exception Invalid of int * string

let int_field f json =
  match J.member f json with Some (J.Int i) -> i | _ -> 0

let check_jsonl lines =
  let counts = Hashtbl.create 16 and line_no = ref 0 in
  let stream = ref None and last = ref None and cause_sum = ref 0 in
  let fail msg = raise (Invalid (!line_no, msg)) in
  let failf fmt = Printf.ksprintf fail fmt in
  let check_line json =
    let kind =
      match Option.bind (J.member "type" json) J.to_string_opt with
      | None -> fail "missing \"type\" field"
      | Some n -> (
          match List.find_opt (fun k -> name k = n) all with
          | Some k -> k
          | None -> failf "unknown line type %S" n)
    in
    Option.iter fail (field_error (fields kind) json);
    let tag, kind_stream, _ = spec kind in
    let _, opener, closer, _ = rules kind_stream in
    (match !stream with
    | None ->
        if kind <> opener then failf "stream opens with %S, not %S" tag (name opener);
        let v = int_field "schema_version" json in
        if v <> version then
          failf "schema_version %d is not supported (expected %d)" v version;
        stream := Some kind_stream
    | Some s ->
        let family, _, _, _ = rules s in
        if s <> kind_stream then failf "%S line in a %s stream" tag family;
        if kind = opener then failf "second %S line: it must come first, once" tag;
        if !last <> None then failf "%S line after the summary: it must come last" tag);
    if closer = Some kind then last := Some json;
    if kind = Profile_cause then cause_sum := !cause_sum + int_field "count" json;
    Hashtbl.replace counts kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind))
  in
  try
    List.iter
      (fun l ->
        incr line_no;
        if String.trim l <> "" then
          match J.of_string l with
          | Error e -> fail ("not valid JSON: " ^ e)
          | Ok json -> check_line json)
      lines;
    let stream = match !stream with Some s -> s | None -> fail "no meta line found" in
    let summary_line = Option.value ~default:J.Null !last in
    let s = { stream; counts; census = int_field "census_total" summary_line } in
    let _, _, _, required = rules stream in
    List.iter
      (fun (what, kinds) ->
        if List.for_all (fun k -> count s k = 0) kinds then failf "no %s found" what)
      required;
    (* A profile's census must match the run's misses and its own rows. *)
    let misses = int_field "total_misses" summary_line in
    let reconciled = J.member "reconciled" summary_line = Some (J.Bool true) in
    if stream = Profile && not (reconciled && s.census = misses) then
      failf "miss census (%d) does not reconcile with metrics misses (%d)" s.census
        misses;
    if stream = Profile && !cause_sum <> s.census then
      failf "profile_cause counts sum to %d but census_total is %d" !cause_sum s.census;
    Ok s
  with Invalid (n, msg) -> Error (n, msg)

(* chrome://tracing JSON: complete events with the fields trace viewers
   require. *)
let chrome_trace =
  [ ( "traceEvents",
      Rows
        [ ("name", Str); ("ph", Str); ("ts", Num); ("dur", Num); ("pid", Num);
          ("tid", Num) ] ) ]

let check_chrome text =
  match J.of_string text with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok json -> (
      match field_error chrome_trace json with
      | Some e -> Error e
      | None ->
          let events = Option.bind (J.member "traceEvents" json) J.to_list_opt in
          Ok (List.length (Option.get events)))
