(* Bounded single-producer single-consumer ring buffer.

   Head and tail are monotonically increasing packet counts (63-bit ints
   never wrap at any plausible rate); the slot index is [count land mask].
   Each side owns one atomic and keeps a cached snapshot of the other
   side's, so the steady-state fast path touches only its own cache line:
   the producer re-reads [head] only when the ring looks full, the
   consumer re-reads [tail] only when it looks empty (the classic SPSC
   optimisation; see Snabb's link.c / Rigtorp's SPSC queue).

   Publication safety: the slot write happens before the [Atomic.set] that
   makes it visible, and the consumer reads the slot only after an
   [Atomic.get] that observed the bump — the standard safe-publication
   idiom under the OCaml memory model.  [Atomic.make_contended] would be
   the 5.2+ way to keep the two atomics off one cache line; on 5.1 we
   allocate spacer blocks between them (best effort). *)

type 'a t = {
  slots : 'a option array;
  mask : int;
  tail : int Atomic.t;  (* producer-owned: next write count *)
  head : int Atomic.t;  (* consumer-owned: next read count *)
  mutable cached_head : int;  (* producer's snapshot of [head] *)
  mutable cached_tail : int;  (* consumer's snapshot of [tail] *)
}

(* A cache line of spacing (8 words) between consecutive atomics. *)
let spacer () = ignore (Sys.opaque_identity (Array.make 8 0))

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let tail = Atomic.make 0 in
  spacer ();
  let head = Atomic.make 0 in
  spacer ();
  { slots = Array.make !cap None; mask = !cap - 1; tail; head; cached_head = 0;
    cached_tail = 0 }

let capacity t = Array.length t.slots

let try_push t v =
  let tail = Atomic.get t.tail in
  let full = tail - t.cached_head >= Array.length t.slots in
  let full =
    if not full then false
    else begin
      t.cached_head <- Atomic.get t.head;
      tail - t.cached_head >= Array.length t.slots
    end
  in
  if full then false
  else begin
    t.slots.(tail land t.mask) <- Some v;
    Atomic.set t.tail (tail + 1);
    true
  end

let try_pop t =
  let head = Atomic.get t.head in
  let empty = head >= t.cached_tail in
  let empty =
    if not empty then false
    else begin
      t.cached_tail <- Atomic.get t.tail;
      head >= t.cached_tail
    end
  in
  if empty then None
  else begin
    let i = head land t.mask in
    let v = t.slots.(i) in
    (* Drop the ring's reference so the value's lifetime is the
       consumer's, not the slot's next-overwrite time. *)
    t.slots.(i) <- None;
    Atomic.set t.head (head + 1);
    v
  end

(* Blocking waits: spin briefly (the peer is usually mid-batch), then
   sleep-poll.  The sleep matters on hosts with fewer cores than domains —
   a pure spin-wait would burn the very timeslice the peer needs to make
   progress. *)
let spin_budget = 512
let sleep_s = 0.0002

let push t v =
  let rec go spins =
    if not (try_push t v) then
      if spins < spin_budget then begin
        Domain.cpu_relax ();
        go (spins + 1)
      end
      else begin
        Unix.sleepf sleep_s;
        go spins
      end
  in
  go 0

let pop t =
  let rec go spins =
    match try_pop t with
    | Some v -> v
    | None ->
        if spins < spin_budget then begin
          Domain.cpu_relax ();
          go (spins + 1)
        end
        else begin
          Unix.sleepf sleep_s;
          go spins
        end
  in
  go 0
