(* Attribution: the pull side of the traversal tracer.  [Tracer] fills a
   span ring on the packet path; this module aggregates the pulled spans
   into per-level probe-cost breakdowns, per-pipeline-table cycle totals
   and sub-traversal reuse-depth histograms, and renders them as folded-stack text (flamegraphs), chrome://tracing JSON,
   Prometheus series and profile JSONL.

   Everything here runs off the packet loop (at flush / finalize / export
   time), so plain hashless int arrays with doubling growth are enough;
   determinism only requires that ingest order is a pure function of the
   shard's packet stream, which the tracer's ring guarantees. *)

module Json = Gf_util.Json

(* ------------------------------ outcomes ----------------------------- *)

(* Span outcome codes, shared with [Tracer]: a probe span at a cache level
   either missed or hit; a slowpath span charges one pipeline table. *)
let outcome_miss = 0
let outcome_hit = 1
let outcome_slowpath = 2

let outcome_name = function
  | 0 -> "miss"
  | 1 -> "hit"
  | 2 -> "slowpath"
  | _ -> "unknown"

(* ------------------------------- state ------------------------------- *)

type t = {
  level_names : string array;
  n_levels : int;
  mutable sampled_packets : int;
  mutable spans : int;
  level_cycles : int array;  (* (level * 2 + outcome) -> modeled cycles *)
  level_spans : int array;  (* same indexing: probe spans observed *)
  mutable depth_hist : int array;  (* reuse depth -> hit spans; grows *)
  mutable table_cycles : int array;  (* pipeline table id -> cycles; grows *)
  mutable table_visits : int array;
  (* The first [retain] sampled spans are kept verbatim for the chrome
     trace; keeping a prefix (rather than newest-wins) makes the retained
     set independent of flush cadence. *)
  retain : int;
  mutable r_packet : int array;
  mutable r_time : float array;
  mutable r_level : int array;
  mutable r_table : int array;
  mutable r_depth : int array;
  mutable r_cycles : int array;
  mutable r_outcome : int array;
  mutable r_len : int;
}

let default_retain = 4096

let create ?(retain = default_retain) ~level_names () =
  let n = Array.length level_names in
  {
    level_names;
    n_levels = n;
    sampled_packets = 0;
    spans = 0;
    level_cycles = Array.make (max 1 (n * 2)) 0;
    level_spans = Array.make (max 1 (n * 2)) 0;
    depth_hist = Array.make 8 0;
    table_cycles = Array.make 16 0;
    table_visits = Array.make 16 0;
    retain;
    r_packet = [||];
    r_time = [||];
    r_level = [||];
    r_table = [||];
    r_depth = [||];
    r_cycles = [||];
    r_outcome = [||];
    r_len = 0;
  }

let sampled_packets t = t.sampled_packets
let spans t = t.spans

let grown a n =
  if n < Array.length a then a
  else begin
    let b = Array.make (max (n + 1) (2 * Array.length a + 1)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let retain_span t ~packet ~time ~level ~table ~depth ~cycles ~outcome =
  if t.r_len < t.retain then begin
    if t.r_len = Array.length t.r_packet then begin
      let cap = max 256 (min t.retain (2 * Array.length t.r_packet + 1)) in
      let gi a =
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 t.r_len;
        b
      in
      let gf a =
        let b = Array.make cap 0.0 in
        Array.blit a 0 b 0 t.r_len;
        b
      in
      t.r_packet <- gi t.r_packet;
      t.r_time <- gf t.r_time;
      t.r_level <- gi t.r_level;
      t.r_table <- gi t.r_table;
      t.r_depth <- gi t.r_depth;
      t.r_cycles <- gi t.r_cycles;
      t.r_outcome <- gi t.r_outcome
    end;
    let k = t.r_len in
    t.r_packet.(k) <- packet;
    t.r_time.(k) <- time;
    t.r_level.(k) <- level;
    t.r_table.(k) <- table;
    t.r_depth.(k) <- depth;
    t.r_cycles.(k) <- cycles;
    t.r_outcome.(k) <- outcome;
    t.r_len <- k + 1
  end

let ingest_span t ~packet ~time ~level ~table ~depth ~cycles ~outcome =
  t.spans <- t.spans + 1;
  if outcome = outcome_slowpath then begin
    if table >= 0 then begin
      t.table_cycles <- grown t.table_cycles table;
      t.table_visits <- grown t.table_visits table;
      t.table_cycles.(table) <- t.table_cycles.(table) + cycles;
      t.table_visits.(table) <- t.table_visits.(table) + 1
    end
  end
  else if level >= 0 && level < t.n_levels then begin
    let i = (level * 2) + outcome in
    t.level_cycles.(i) <- t.level_cycles.(i) + cycles;
    t.level_spans.(i) <- t.level_spans.(i) + 1;
    if outcome = outcome_hit then begin
      t.depth_hist <- grown t.depth_hist depth;
      t.depth_hist.(depth) <- t.depth_hist.(depth) + 1
    end
  end;
  retain_span t ~packet ~time ~level ~table ~depth ~cycles ~outcome

let note_sampled_packet t = t.sampled_packets <- t.sampled_packets + 1

(* ------------------------------- merge ------------------------------- *)

let merge ~into src =
  if into.n_levels <> src.n_levels then
    invalid_arg "Attribution.merge: mismatched level counts";
  into.sampled_packets <- into.sampled_packets + src.sampled_packets;
  into.spans <- into.spans + src.spans;
  Array.iteri
    (fun i v -> into.level_cycles.(i) <- into.level_cycles.(i) + v)
    src.level_cycles;
  Array.iteri
    (fun i v -> into.level_spans.(i) <- into.level_spans.(i) + v)
    src.level_spans;
  into.depth_hist <- grown into.depth_hist (Array.length src.depth_hist - 1);
  Array.iteri
    (fun i v -> into.depth_hist.(i) <- into.depth_hist.(i) + v)
    src.depth_hist;
  into.table_cycles <- grown into.table_cycles (Array.length src.table_cycles - 1);
  into.table_visits <- grown into.table_visits (Array.length src.table_visits - 1);
  Array.iteri
    (fun i v -> into.table_cycles.(i) <- into.table_cycles.(i) + v)
    src.table_cycles;
  Array.iteri
    (fun i v -> into.table_visits.(i) <- into.table_visits.(i) + v)
    src.table_visits;
  (* Retained spans concatenate in merge order (shard order is fixed by
     the caller), capped at [into.retain]. *)
  for k = 0 to src.r_len - 1 do
    retain_span into ~packet:src.r_packet.(k) ~time:src.r_time.(k)
      ~level:src.r_level.(k) ~table:src.r_table.(k) ~depth:src.r_depth.(k)
      ~cycles:src.r_cycles.(k) ~outcome:src.r_outcome.(k)
  done

(* ------------------------------- exports ----------------------------- *)

(* Folded-stack text: one "frame1;frame2 count" line per aggregate, counts
   in modeled cycles — feed straight to flamegraph.pl / speedscope.  Sorted
   lexicographically so output is deterministic. *)
let folded t =
  let lines = ref [] in
  for l = 0 to t.n_levels - 1 do
    for o = 0 to 1 do
      let c = t.level_cycles.((l * 2) + o) in
      if t.level_spans.((l * 2) + o) > 0 then
        lines :=
          Printf.sprintf "datapath;%s;%s %d" t.level_names.(l) (outcome_name o)
            c
          :: !lines
    done
  done;
  Array.iteri
    (fun id v ->
      if t.table_visits.(id) > 0 then
        lines := Printf.sprintf "datapath;slowpath;table_%d %d" id v :: !lines)
    t.table_cycles;
  String.concat "\n" (List.sort compare !lines) ^ "\n"

let span_name t ~level ~table ~outcome =
  if outcome = outcome_slowpath then Printf.sprintf "table_%d" table
  else if level >= 0 && level < t.n_levels then
    Printf.sprintf "%s:%s" t.level_names.(level) (outcome_name outcome)
  else "span"

(* chrome://tracing "X" (complete) events from the retained spans: ts is
   the packet's virtual time in microseconds, dur the span's modeled
   cycles converted by [us_of_cycles] (default 1 GHz). *)
let chrome_json ?(us_of_cycles = fun c -> float_of_int c *. 1e-3) t =
  let events = ref [] in
  for k = t.r_len - 1 downto 0 do
    let outcome = t.r_outcome.(k) in
    let tid =
      if outcome = outcome_slowpath then t.n_levels else t.r_level.(k)
    in
    events :=
      Json.Obj
        [
          ("name", Json.Str (span_name t ~level:t.r_level.(k) ~table:t.r_table.(k) ~outcome));
          ("ph", Json.Str "X");
          ("ts", Json.Float (t.r_time.(k) *. 1e6));
          ("dur", Json.Float (us_of_cycles t.r_cycles.(k)));
          ("pid", Json.Int 0);
          ("tid", Json.Int tid);
          ( "args",
            Json.Obj
              [
                ("packet", Json.Int t.r_packet.(k));
                ("depth", Json.Int t.r_depth.(k));
                ("cycles", Json.Int t.r_cycles.(k));
              ] );
        ]
      :: !events
  done;
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List !events);
         ("displayTimeUnit", Json.Str "ms");
       ])

let to_registry t registry =
  let set ?labels ~help name v =
    let r = Registry.counter registry ?labels ~help name in
    r := v
  in
  set ~help:"Packets selected by the traversal tracer"
    "gigaflow_profile_sampled_packets_total" t.sampled_packets;
  set ~help:"Traversal spans ingested by the profiler"
    "gigaflow_profile_spans_total" t.spans;
  for l = 0 to t.n_levels - 1 do
    for o = 0 to 1 do
      if t.level_spans.((l * 2) + o) > 0 then
        set
          ~labels:
            [ ("level", t.level_names.(l)); ("outcome", outcome_name o) ]
          ~help:"Modeled cycles attributed to sampled cache-level probes"
          "gigaflow_profile_cycles_total"
          t.level_cycles.((l * 2) + o)
    done
  done;
  Array.iteri
    (fun id v ->
      if t.table_visits.(id) > 0 then
        set
          ~labels:[ ("table", string_of_int id) ]
          ~help:"Modeled slowpath cycles attributed to pipeline tables"
          "gigaflow_profile_table_cycles_total" v)
    t.table_cycles;
  Array.iteri
    (fun d v ->
      if v > 0 then
        set
          ~labels:[ ("depth", string_of_int d) ]
          ~help:"Sampled hit spans by sub-traversal reuse depth"
          "gigaflow_profile_reuse_depth_total" v)
    t.depth_hist

(* Profile JSONL: a meta line, per-(level,outcome) probe aggregates,
   per-table slowpath aggregates, the reuse-depth histogram, the caller's
   miss-cause rows and a summary line reconciling their sum against the
   miss total the caller observed. *)
let write_jsonl ?(meta = []) ~causes ~total_misses oc t =
  let line kind fields = Schema.write_line oc (Schema.line kind fields) in
  line Schema.Profile_meta
    (meta
    @ [
        ("sampled_packets", Json.Int t.sampled_packets);
        ("spans", Json.Int t.spans);
        ( "levels",
          Json.List
            (Array.to_list (Array.map (fun n -> Json.Str n) t.level_names)) );
      ]);
  for l = 0 to t.n_levels - 1 do
    for o = 0 to 1 do
      if t.level_spans.((l * 2) + o) > 0 then
        line Schema.Profile_level
          [
            ("level", Json.Str t.level_names.(l));
            ("outcome", Json.Str (outcome_name o));
            ("spans", Json.Int t.level_spans.((l * 2) + o));
            ("cycles", Json.Int t.level_cycles.((l * 2) + o));
          ]
    done
  done;
  Array.iteri
    (fun id v ->
      if v > 0 then
        line Schema.Profile_table
          [
            ("table", Json.Int id);
            ("visits", Json.Int v);
            ("cycles", Json.Int t.table_cycles.(id));
          ])
    t.table_visits;
  Array.iteri
    (fun d v ->
      if v > 0 then
        line Schema.Profile_depth
          [
            ("depth", Json.Int d);
            ("spans", Json.Int v);
          ])
    t.depth_hist;
  List.iter
    (fun (level, cause, v) ->
      line Schema.Profile_cause
        [
          ("level", Json.Str level);
          ("cause", Json.Str cause);
          ("count", Json.Int v);
        ])
    causes;
  let total = List.fold_left (fun acc (_, _, v) -> acc + v) 0 causes in
  line Schema.Profile_summary
    [
      ("census_total", Json.Int total);
      ("total_misses", Json.Int total_misses);
      ("reconciled", Json.Bool (total = total_misses));
    ]
