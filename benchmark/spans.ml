(* Spans for the traced pass, recorded from the benchmark's own calls into
   each library.  Every span is aggregated in memory ([stat]); a sampled
   subset is kept whole ([recorder]) and written as chrome://tracing JSON
   when the run ends. *)

module Json = Gf_util.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Durations of every [stride]-th span are kept for an exact p99: the
   commonest outcome would otherwise keep millions. *)
type stat = {
  mutable n : int;
  mutable ns : int;
  mutable words : float;  (** minor-heap words allocated inside the spans *)
  stride : int;
  mutable kept : float array;
  mutable len : int;
}

let stat ?(stride = 1) () = { n = 0; ns = 0; words = 0.0; stride; kept = Array.make 1024 0.0; len = 0 }

let add st ~ns ~words =
  if st.n mod st.stride = 0 then begin
    if st.len = Array.length st.kept then
      st.kept <- Array.append st.kept (Array.make st.len 0.0);
    st.kept.(st.len) <- float_of_int ns;
    st.len <- st.len + 1
  end;
  st.n <- st.n + 1;
  st.ns <- st.ns + ns;
  st.words <- st.words +. words

let per st x = if st.n = 0 then 0.0 else x /. float_of_int st.n
let ns_per st = per st (float_of_int st.ns)
let words_per st = per st st.words
let p99 st = if st.len = 0 then 0.0 else Gf_util.Stats.percentile (Array.sub st.kept 0 st.len) 99.0

(* The cost of an empty span as the traced loop takes it: two clock reads
   and two minor-heap counter reads. *)
let empty_span_ns () =
  let n = 100_000 and total = ref 0 in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Gc.minor_words ()));
    let s = now_ns () in
    let e = now_ns () in
    ignore (Sys.opaque_identity (Gc.minor_words ()));
    total := !total + (e - s)
  done;
  float_of_int !total /. float_of_int n

(* Time [f] over [items], repeating the whole pass until at least 20 ms
   have elapsed; returns ns per item. *)
let ns_per_item items f =
  let n = Array.length items in
  if n = 0 then 0.0
  else begin
    let calls = ref 0 and t0 = now_ns () in
    while now_ns () - t0 < 20_000_000 do
      Array.iter f items;
      calls := !calls + n
    done;
    float_of_int (now_ns () - t0) /. float_of_int !calls
  end

type event = {
  name : string;
  start : int;
  stop : int;
  id : int;
  parent : int;  (** 0 for roots *)
  packet : int;  (** packet index within the replay; -1 for batches/windows *)
}

type recorder = {
  origin : int;
  mutable keep : bool;
  mutable next_id : int;
  mutable events : event list;
}

let recorder () = { origin = now_ns (); keep = true; next_id = 1; events = [] }

let fresh_id r =
  let id = r.next_id in
  r.next_id <- id + 1;
  id

let keep r ~id ~name ~start ~stop ~parent ~packet =
  if r.keep then r.events <- { name; start; stop; id; parent; packet } :: r.events

let chrome_events ~pid r =
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  List.rev_map
    (fun e ->
      Json.Obj
        [
          ("name", Json.Str e.name);
          ("ph", Json.Str "X");
          ("ts", us (e.start - r.origin));
          ("dur", us (e.stop - e.start));
          ("pid", Json.Int pid);
          ("tid", Json.Int 1);
          ( "args",
            Json.Obj
              [ ("id", Json.Int e.id); ("parent", Json.Int e.parent); ("packet", Json.Int e.packet) ]
          );
        ])
    r.events
