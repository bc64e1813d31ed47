(* Event flight recorder: a fixed-size ring of structured datapath events
   with configurable sampling.  The ring keeps the newest [capacity]
   recorded events; draining returns them oldest-first.  Sampling happens at
   record time (every [sample_every]-th candidate is kept), so a hot level
   can emit millions of candidates while the recorder stays O(capacity). *)

type kind =
  | Hit
  | Miss
  | Install
  | Evict
  | Promote
  | Revalidate
  | Reject
  | Pressure_evict
  | Defer
  | Demote

let kind_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Install -> "install"
  | Evict -> "evict"
  | Promote -> "promote"
  | Revalidate -> "revalidate"
  | Reject -> "reject"
  | Pressure_evict -> "pressure_evict"
  | Defer -> "defer"
  | Demote -> "demote"

type event = {
  seq : int;  (* candidate index within this recorder, 0-based *)
  packet : int;  (* virtual packet index when the event fired *)
  time : float;  (* virtual trace time, seconds *)
  level : string;  (* cache-level name, "" for datapath-wide events *)
  kind : kind;
  latency_us : float;  (* 0 where latency is not meaningful *)
  count : int;  (* e.g. entries evicted / rules installed; 1 for hit/miss *)
}

type t = {
  capacity : int;
  sample_every : int;
  ring : event option array;
  mutable seen : int;  (* candidates offered *)
  mutable written : int;  (* events written into the ring, monotone *)
}

let create ?(capacity = 4096) ?(sample_every = 1) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be positive";
  if sample_every < 1 then
    invalid_arg "Recorder.create: sample_every must be positive";
  { capacity; sample_every; ring = Array.make capacity None; seen = 0; written = 0 }

let sample_every t = t.sample_every
let seen t = t.seen
let recorded t = t.written
let retained t = min t.written t.capacity
let dropped t = max 0 (t.written - t.capacity)

(* Append an already-sampled event (merge path). *)
let push t ev =
  t.ring.(t.written mod t.capacity) <- Some ev;
  t.written <- t.written + 1

let record t ~packet ~time ~level ~latency_us ~count kind =
  let s = t.seen in
  t.seen <- s + 1;
  if s mod t.sample_every = 0 then
    push t { seq = s; packet; time; level; kind; latency_us; count }

(* Oldest-to-newest retained events. *)
let drain t =
  let n = retained t in
  let start = t.written - n in
  List.init n (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some ev -> ev
      | None -> assert false)

(* Fold [src]'s retained events into [into]'s ring (already sampled, so
   they bypass [into]'s sampling) and account its candidate census.  Shard
   merge: per-shard event streams are concatenated in merge order, and the
   ring then keeps the newest [capacity] of the combined stream. *)
let merge ~into src =
  List.iter (push into) (drain src);
  into.seen <- into.seen + src.seen
