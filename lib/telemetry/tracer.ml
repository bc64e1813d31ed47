(* Traversal tracer: the hot-path half of the profiler.  For 1-in-N
   sampled packets the datapath appends span-shaped entries (packet id,
   level probed, pipeline table visited, LTM tag-chain step, modeled
   cycles, outcome) to a struct-of-arrays ring with plain array stores —
   no allocation, no calls.  A sampler pulls the ring into {!Attribution}
   on its own cadence (ring-full, per batch in the engine, per N packets
   in the walker, unconditionally at finalize).

   One always-on duty rides alongside the sampled spans: the packet
   countdown ([on_packet]) decides deterministically whether the current
   packet is traced.  Packet k of the shard's stream is sampled iff
   k mod sample_every = 0, a pure function of the stream, so
   engine==sequential and cadence invariance hold by construction.

   Like every other telemetry sink, a tracer is owned by one shard and
   merged after finalize, preserving the established bit-identity. *)

type t = {
  sample_every : int;
  mutable until : int;  (* packets until the next traced one; 0 = now *)
  mutable active : bool;  (* current packet is being traced *)
  (* Struct-of-arrays span ring. *)
  sp_packet : int array;
  sp_time : float array;
  sp_level : int array;
  sp_table : int array;
  sp_depth : int array;
  sp_cycles : int array;
  sp_outcome : int array;
  mutable sp_len : int;
  attr : Attribution.t;
}

let default_span_capacity = 2048

let create ?(span_capacity = default_span_capacity) ?retain ~sample_every
    ~level_names () =
  if sample_every < 1 then
    invalid_arg "Tracer.create: sample_every must be positive";
  if span_capacity < 1 then
    invalid_arg "Tracer.create: span_capacity must be positive";
  {
    sample_every;
    until = 0;
    active = false;
    sp_packet = Array.make span_capacity 0;
    sp_time = Array.make span_capacity 0.0;
    sp_level = Array.make span_capacity 0;
    sp_table = Array.make span_capacity 0;
    sp_depth = Array.make span_capacity 0;
    sp_cycles = Array.make span_capacity 0;
    sp_outcome = Array.make span_capacity 0;
    sp_len = 0;
  attr = Attribution.create ?retain ~level_names ();
  }

let active t = t.active

let flush t =
  if t.sp_len > 0 then begin
    for k = 0 to t.sp_len - 1 do
      Attribution.ingest_span t.attr ~packet:t.sp_packet.(k)
        ~time:t.sp_time.(k) ~level:t.sp_level.(k) ~table:t.sp_table.(k)
        ~depth:t.sp_depth.(k) ~cycles:t.sp_cycles.(k)
        ~outcome:t.sp_outcome.(k)
    done;
    t.sp_len <- 0
  end

(* Called once per packet, first thing, on every replay path.  Decides
   whether this packet's traversal is traced: packet k of the shard's
   stream iff [k mod sample_every = 0], kept as a countdown so the
   per-packet cost is a decrement, not a division. *)
let on_packet t =
  let a = t.until = 0 in
  t.until <- (if a then t.sample_every - 1 else t.until - 1);
  t.active <- a;
  if a then Attribution.note_sampled_packet t.attr;
  a

let span t ~packet ~time ~level ~table ~depth ~cycles ~outcome =
  let k = t.sp_len in
  t.sp_packet.(k) <- packet;
  t.sp_time.(k) <- time;
  t.sp_level.(k) <- level;
  t.sp_table.(k) <- table;
  t.sp_depth.(k) <- depth;
  t.sp_cycles.(k) <- cycles;
  t.sp_outcome.(k) <- outcome;
  t.sp_len <- k + 1;
  if k + 1 = Array.length t.sp_packet then flush t

let attribution t =
  flush t;
  t.attr

(* [until] is per-shard stream position and stays with [into] — a merged
   tracer aggregates, it does not keep tracing a stream. *)
let merge ~into src =
  flush into;
  flush src;
  Attribution.merge ~into:into.attr src.attr
