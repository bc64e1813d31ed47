(* Passive (pull-model) telemetry: flat preallocated records that the
   datapath hot path writes with plain field and array stores, and that a
   sampler drains on its own cadence — per batch in the streaming engine,
   per N packets in the walker, and unconditionally at finalize.

   Three write targets, all owned per shard:

   - [counters]: one record per cache level with one mutable int field per
     event kind.  The per-packet path bumps a field — no hashtable lookup,
     no closure, no call.  [to_registry] exports them as the
     [gigaflow_events_total{level,kind}] series at finalize.
   - latency rings ([lat_ring]): raw (value, bucket index) pairs appended
     for every recorded latency; [flush_lat] bulk-records them into the
     owning histogram ([Histogram.record_seq]).  Bit-identical to inline
     [Histogram.record] — same buckets, same left-to-right float sum — but
     the count/sum/min/max aggregation (and its boxed-float stores) runs
     once per flush instead of once per sample.
   - the event ring: a struct-of-arrays ring of flight-recorder candidates
     (int/float array columns, no per-event record allocation);
     [flush_events] hands it to [Recorder.ingest], which applies the
     every-Nth sampling against the recorder's persistent candidate
     census — so flush cadence (ring-full, sampler tick, finalize) cannot
     change which events are retained.

   Determinism: every flush preserves emission order, and each histogram
   and recorder is fed by exactly one ring, so a shard's final telemetry
   is a pure function of its packet stream — identical whatever cadence
   the sampler ran at.  Shard merges (Metrics.merge / Telemetry.merge)
   happen after finalize, which flushes everything, so the established
   engine==sequential bit-identity is untouched. *)

type counters = {
  c_level : string;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_installs : int;
  mutable c_evicts : int;
  mutable c_promotes : int;
  mutable c_revalidates : int;
  mutable c_rejects : int;
  mutable c_pressure_evicts : int;
  mutable c_defers : int;
  mutable c_demotes : int;
}

type lat_ring = {
  lr_vals : float array;
  lr_idxs : int array;  (* lr_idxs.(k) = Histogram.index h lr_vals.(k) *)
  mutable lr_len : int;
  mutable lr_wraps : int;  (* ring-full auto-flushes (capacity wraps) *)
}

type t = {
  counters : counters array;  (* walk order, one record per level *)
  lat_global : lat_ring;
  lat_levels : lat_ring array;  (* same order as [counters] *)
  (* Struct-of-arrays flight-recorder candidate ring. *)
  ev_kind : int array;  (* Recorder.kind_tag *)
  ev_level : int array;  (* index into [level_names] *)
  ev_packet : int array;
  ev_count : int array;
  ev_time : float array;
  ev_lat : float array;
  mutable ev_len : int;
  mutable ev_wraps : int;  (* event-ring-full auto-flushes *)
  level_names : string array;
  recorder : Recorder.t option;
  events_on : bool;
      (* [recorder <> None], exposed as a plain field so emission sites
         skip the event-ring append (a call) with one load when event
         tracing is off. *)
}

let default_lat_capacity = 1024
let default_event_capacity = 4096

let fresh_counters name =
  {
    c_level = name;
    c_hits = 0;
    c_misses = 0;
    c_installs = 0;
    c_evicts = 0;
    c_promotes = 0;
    c_revalidates = 0;
    c_rejects = 0;
    c_pressure_evicts = 0;
    c_defers = 0;
    c_demotes = 0;
  }

let create ?(lat_capacity = default_lat_capacity)
    ?(event_capacity = default_event_capacity) ~level_names ~recorder () =
  if lat_capacity < 1 then
    invalid_arg "Passive.create: lat_capacity must be positive";
  if event_capacity < 1 then
    invalid_arg "Passive.create: event_capacity must be positive";
  let ring () =
    {
      lr_vals = Array.make lat_capacity 0.0;
      lr_idxs = Array.make lat_capacity 0;
      lr_len = 0;
      lr_wraps = 0;
    }
  in
  {
    counters = Array.map fresh_counters level_names;
    lat_global = ring ();
    lat_levels = Array.map (fun _ -> ring ()) level_names;
    ev_kind = Array.make event_capacity 0;
    ev_level = Array.make event_capacity 0;
    ev_packet = Array.make event_capacity 0;
    ev_count = Array.make event_capacity 0;
    ev_time = Array.make event_capacity 0.0;
    ev_lat = Array.make event_capacity 0.0;
    ev_len = 0;
    ev_wraps = 0;
    level_names;
    recorder;
    events_on = Option.is_some recorder;
  }

(* ---------------------------- latency rings ---------------------------- *)

let flush_lat r h =
  if r.lr_len > 0 then begin
    Histogram.record_seq h ~idxs:r.lr_idxs ~vals:r.lr_vals r.lr_len;
    r.lr_len <- 0
  end

(* Append with the bucket index precomputed (the compiled replay fast path
   reuses its memoised index, paying no log2 at all). *)
let lat_note_at r h ~idx x =
  let k = r.lr_len in
  r.lr_vals.(k) <- x;
  r.lr_idxs.(k) <- idx;
  r.lr_len <- k + 1;
  if k + 1 = Array.length r.lr_vals then begin
    r.lr_wraps <- r.lr_wraps + 1;
    flush_lat r h
  end

let lat_note r h x = lat_note_at r h ~idx:(Histogram.index h x) x

(* ----------------------------- event ring ------------------------------ *)

let flush_events t =
  if t.ev_len > 0 then begin
    (match t.recorder with
    | Some r ->
        Recorder.ingest r ~kinds:t.ev_kind ~levels:t.ev_level
          ~level_names:t.level_names ~packets:t.ev_packet ~times:t.ev_time
          ~lats:t.ev_lat ~counts:t.ev_count t.ev_len
    | None -> ());
    t.ev_len <- 0
  end

let note t ~kind ~level ~packet ~time ~lat ~count =
  if t.events_on then begin
    let k = t.ev_len in
    t.ev_kind.(k) <- Recorder.kind_tag kind;
    t.ev_level.(k) <- level;
    t.ev_packet.(k) <- packet;
    t.ev_count.(k) <- count;
    t.ev_time.(k) <- time;
    t.ev_lat.(k) <- lat;
    t.ev_len <- k + 1;
    if k + 1 = Array.length t.ev_kind then begin
      t.ev_wraps <- t.ev_wraps + 1;
      flush_events t
    end
  end

(* ------------------------------- export -------------------------------- *)

let iter_kinds f c =
  f "hit" c.c_hits;
  f "miss" c.c_misses;
  f "install" c.c_installs;
  f "evict" c.c_evicts;
  f "promote" c.c_promotes;
  f "revalidate" c.c_revalidates;
  f "reject" c.c_rejects;
  f "pressure_evict" c.c_pressure_evicts;
  f "defer" c.c_defers;
  f "demote" c.c_demotes

(* Export the candidate census as [gigaflow_events_total{level,kind}].
   Values are *set* (mirroring [Metrics.to_registry]), so exporting twice
   is idempotent; shard registries still sum under [Registry.merge]
   because each shard exports its own disjoint records. *)
let to_registry t registry =
  let help = "Datapath event candidates observed by the passive records" in
  Array.iter
    (fun c ->
      iter_kinds
        (fun kind v ->
          let r =
            Registry.counter registry
              ~labels:[ ("kind", kind); ("level", c.c_level) ]
              ~help "gigaflow_events_total"
          in
          r := v)
        c)
    t.counters;
  (* Ring-full auto-flush counts: a non-zero value means the sampler's
     pull cadence is slower than the ring fills — the records still stay
     exact (flushes are order-preserving), but the misconfiguration is
     now observable instead of silent. *)
  let fhelp = "Ring-full auto-flushes of the passive records" in
  let setf ring v =
    let r =
      Registry.counter registry
        ~labels:[ ("ring", ring) ]
        ~help:fhelp "gigaflow_passive_ring_flushes_total"
    in
    r := v
  in
  setf "latency_global" t.lat_global.lr_wraps;
  Array.iteri
    (fun i r -> setf ("latency:" ^ t.level_names.(i)) r.lr_wraps)
    t.lat_levels;
  setf "events" t.ev_wraps

let ring_flushes t =
  t.lat_global.lr_wraps + t.ev_wraps
  + Array.fold_left (fun acc r -> acc + r.lr_wraps) 0 t.lat_levels

let total_candidates t =
  Array.fold_left
    (fun acc c ->
      let s = ref acc in
      iter_kinds (fun _ v -> s := !s + v) c;
      !s)
    0 t.counters
