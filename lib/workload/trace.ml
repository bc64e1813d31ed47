module Rng = Gf_util.Rng
module Zipf = Gf_util.Zipf

type t = {
  times : float array;
  flow_ids : int array;
  flows : Gf_flow.Flow.t array;
  duration : float;
}

(* Stdlib's [Array.sort] (a ternary heapsort) by time, step for step, on
   the two packet arrays at once: it makes the same comparisons in the
   same order and so leaves the same permutation, ties included, without
   a closure call and a polymorphic compare per comparison.  Times are
   never NaN, so [compare a b < 0] is [a < b]. *)
let sort_by_time (times : float array) (ids : int array) =
  let move ~dst ~src =
    times.(dst) <- times.(src);
    ids.(dst) <- ids.(src)
  in
  (* The largest of [i]'s up to three children, or -1 if it has none. *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if times.(i31) < times.(i31 + 1) then i31 + 1 else i31 in
      if times.(x) < times.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && times.(i31) < times.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let trickle l i =
    let e = times.(i) and id = ids.(i) in
    let i = ref i and j = ref (maxson l i) in
    while !j >= 0 && times.(!j) > e do
      move ~dst:!i ~src:!j;
      i := !j;
      j := maxson l !j
    done;
    times.(!i) <- e;
    ids.(!i) <- id
  in
  let bubble l =
    let i = ref 0 and j = ref (maxson l 0) in
    while !j >= 0 do
      move ~dst:!i ~src:!j;
      i := !j;
      j := maxson l !j
    done;
    !i
  in
  let l = Array.length times in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i
  done;
  for i = l - 1 downto 2 do
    let e = times.(i) and id = ids.(i) in
    move ~dst:i ~src:0;
    (* Trickle [e] up from the leaf [bubble] left empty. *)
    let i = ref (bubble i) in
    while !i > 0 && times.((!i - 1) / 3) < e do
      move ~dst:!i ~src:((!i - 1) / 3);
      i := (!i - 1) / 3
    done;
    times.(!i) <- e;
    ids.(!i) <- id
  done;
  if l > 1 then begin
    let e = times.(1) and id = ids.(1) in
    move ~dst:1 ~src:0;
    times.(0) <- e;
    ids.(0) <- id
  end

let generate ?(duration = 60.0) ?(mean_flow_size = 8.0) ?(max_flow_size = 2048)
    ?(start_spread = 0.5) ?(lifetime_frac = 0.3) ~seed ~flows () =
  let n = Array.length flows in
  (* Pareto with alpha=1.25: heavy tail; xmin scaled so the mean before
     capping is roughly [mean_flow_size] (mean = xmin * a / (a - 1)). *)
  let alpha = 1.25 in
  let xmin = mean_flow_size *. (alpha -. 1.0) /. alpha in
  (* One pass over the flows' draws; [emit] sees every packet. *)
  let draw rng emit =
    for flow_id = 0 to n - 1 do
      let size =
        min max_flow_size (max 1 (int_of_float (Rng.pareto rng ~alpha ~xmin)))
      in
      let start = Rng.float rng (duration *. start_spread) in
      (* Spread the flow's packets over a lifetime of ~[lifetime_frac] of
         the trace with exponential gaps (bursty), so that a large fraction
         of flows is concurrently live — the paper's cache-pressure
         regime. *)
      let mean_gap =
        Float.max 1e-4 (duration *. (lifetime_frac /. 0.3) *. 0.5 /. float_of_int size)
      in
      let time = ref start in
      for _ = 1 to size do
        emit !time flow_id;
        time := !time +. Rng.exponential rng ~mean:mean_gap
      done
    done
  in
  let rng = Rng.create seed in
  (* A dry run on a copy of the stream counts the packets, so the trace is
     one exact-size array. *)
  let total = ref 0 in
  draw (Rng.copy rng) (fun _ _ -> incr total);
  (* Packets enter the sort newest first: the order of equal times out of
     the heapsort depends on its input order, which the pinned traces
     fix. *)
  let times = Array.make !total 0.0 and flow_ids = Array.make !total 0 in
  let next = ref !total in
  draw rng (fun time flow_id ->
      decr next;
      times.(!next) <- time;
      flow_ids.(!next) <- flow_id);
  sort_by_time times flow_ids;
  { times; flow_ids; flows; duration }

(* Churn: a rotating active window over the flow array.  Each epoch draws
   its packets uniformly from the [active]-wide window, then the window
   slides by [turnover * active] flows — old flows go cold, fresh flows
   appear, and any fixed-capacity cache sees sustained install pressure
   instead of a converging working set. *)
let churn ?(duration = 60.0) ?(epochs = 30) ?(active = 512) ?(turnover = 0.25)
    ?(packets_per_epoch = 2048) ~seed ~flows () =
  let rng = Rng.create seed in
  let n = Array.length flows in
  if not (n > 0 && epochs > 0 && packets_per_epoch >= 0) then
    invalid_arg "Trace.churn: needs flows, epochs > 0 and packets_per_epoch >= 0";
  let active = max 1 (min active n) in
  let shift =
    int_of_float (Float.round (Float.max 0.0 turnover *. float_of_int active))
  in
  let epoch_len = duration /. float_of_int epochs in
  let total = epochs * packets_per_epoch in
  let times = Array.make total 0.0 and flow_ids = Array.make total 0 in
  (* Packets enter the sort newest first: the order of equal times out of
     the heapsort depends on its input order, which the pinned traces
     fix. *)
  let next = ref total in
  let start = ref 0 in
  for e = 0 to epochs - 1 do
    let t0 = float_of_int e *. epoch_len in
    for _ = 1 to packets_per_epoch do
      let flow_id = (!start + Rng.int rng active) mod n in
      decr next;
      flow_ids.(!next) <- flow_id;
      times.(!next) <- t0 +. Rng.float rng epoch_len
    done;
    start := (!start + shift) mod n
  done;
  sort_by_time times flow_ids;
  { times; flow_ids; flows; duration }

(* Elephant/mice: a tiny set of elephants carries [elephant_share] of the
   packets; every other packet picks a mouse uniformly from the rest of
   the flow array.  With thousands of mice and tens of thousands of
   packets each mouse shows up only a handful of times — below any sane
   hotness threshold — which is exactly the regime where admission policy
   decides who owns the scarce hardware slots. *)
let elephant_mice ?(duration = 60.0) ?(elephants = 16) ?(elephant_share = 0.8)
    ?(packets = 32_768) ~seed ~flows () =
  let rng = Rng.create seed in
  let n = Array.length flows in
  if not (n > 0 && packets >= 0) then
    invalid_arg "Trace.elephant_mice: needs flows and packets >= 0";
  let elephants = max 1 (min elephants n) in
  let mice = n - elephants in
  let mean_gap = duration /. float_of_int (Stdlib.max 1 packets) in
  let times = Array.make packets 0.0 and flow_ids = Array.make packets 0 in
  let time = ref 0.0 in
  for i = 0 to packets - 1 do
    flow_ids.(i) <-
      (if mice = 0 || Rng.float rng 1.0 < elephant_share then Rng.int rng elephants
       else elephants + Rng.int rng mice);
    times.(i) <- !time;
    time := !time +. Rng.exponential rng ~mean:mean_gap
  done;
  { times; flow_ids; flows; duration }

(* Drifting skew: Zipf-popular traffic whose rank -> flow mapping rotates
   by [drift] flows every epoch, so the elephant identity set slides over
   the flow array.  Yesterday's heavy hitters go cold while still holding
   cache entries — the trace that separates admission policies that track
   drift (decay + demotion) from ones that only gate installs. *)
let drifting_skew ?(duration = 60.0) ?(epochs = 8) ?(zipf_s = 1.2) ?(drift = 64)
    ?(packets_per_epoch = 4096) ~seed ~flows () =
  let rng = Rng.create seed in
  let n = Array.length flows in
  if not (n > 0 && epochs > 0 && packets_per_epoch >= 0) then
    invalid_arg
      "Trace.drifting_skew: needs flows, epochs > 0 and packets_per_epoch >= 0";
  let zipf = Zipf.create ~n ~s:zipf_s in
  let epoch_len = duration /. float_of_int epochs in
  let mean_gap = epoch_len /. float_of_int (Stdlib.max 1 packets_per_epoch) in
  let total = epochs * packets_per_epoch in
  let times = Array.make total 0.0 and flow_ids = Array.make total 0 in
  for e = 0 to epochs - 1 do
    let offset = e * drift in
    let time = ref (float_of_int e *. epoch_len) in
    for i = e * packets_per_epoch to ((e + 1) * packets_per_epoch) - 1 do
      flow_ids.(i) <- (Zipf.sample zipf rng + offset) mod n;
      times.(i) <- !time;
      time := !time +. Rng.exponential rng ~mean:mean_gap
    done
  done;
  (* Exponential gaps can overshoot an epoch boundary; restore the global
     nondecreasing-times contract the streaming consumers rely on. *)
  sort_by_time times flow_ids;
  { times; flow_ids; flows; duration }

let packet_count t = Array.length t.times

(* --------------------------- streaming pull --------------------------- *)

type stream = {
  fill :
    times:float array ->
    flow_ids:int array ->
    flows:Gf_flow.Flow.t array ->
    max:int ->
    int;
  stream_flows : Gf_flow.Flow.t array;  (* the flow table ids index *)
  stream_duration : float;
}

let fill s = s.fill

let stream_of_trace t =
  let pos = ref 0 in
  let fill ~times ~flow_ids ~flows ~max =
    let k = Stdlib.min max (packet_count t - !pos) in
    Array.blit t.times !pos times 0 k;
    Array.blit t.flow_ids !pos flow_ids 0 k;
    for i = 0 to k - 1 do
      flows.(i) <- t.flows.(flow_ids.(i))
    done;
    pos := !pos + k;
    k
  in
  { fill; stream_flows = t.flows; stream_duration = t.duration }

(* A running clock in an all-float record, stored flat: advancing it
   boxes no float and runs no write barrier (a captured [float ref]
   would do both on every packet). *)
type clock = { mutable now : float }

(* Steady-state traffic: every packet picks its flow Zipf-independently, so
   the popular-flow working set is stable for the whole stream (no flow
   births/deaths).  Packets are generated batch-at-a-time straight into the
   caller's buffers — memory use is constant no matter how long the
   stream. *)
let steady ?(duration = 60.0) ?(zipf_s = 1.1) ~packets ~seed ~flows () =
  let rng = Rng.create seed in
  let n = Array.length flows in
  if not (n > 0 && packets >= 0) then
    invalid_arg "Trace.steady: needs flows and packets >= 0";
  let zipf = Zipf.create ~n ~s:zipf_s in
  let mean_gap = duration /. float_of_int (Stdlib.max 1 packets) in
  let clock = { now = 0.0 } in
  let remaining = ref packets in
  let fill ~times ~flow_ids ~flows:out ~max =
    let k = Stdlib.min max !remaining in
    for i = 0 to k - 1 do
      let fid = Zipf.sample zipf rng in
      times.(i) <- clock.now;
      flow_ids.(i) <- fid;
      out.(i) <- flows.(fid);
      clock.now <- clock.now +. Rng.exponential rng ~mean:mean_gap
    done;
    remaining := !remaining - k;
    k
  in
  { fill; stream_flows = flows; stream_duration = duration }

(* Materialise a stream (test/debug helper; the steady generator exists
   precisely so callers can avoid this).  The flow table is the
   stream's own. *)
let trace_of_stream ?(batch = 4096) s =
  let times = Array.make batch 0.0 and flow_ids = Array.make batch 0 in
  let flows = Array.make batch Gf_flow.Flow.zero in
  let rec pull acc =
    let k = s.fill ~times ~flow_ids ~flows ~max:batch in
    if k = 0 then List.rev acc
    else pull ((Array.sub times 0 k, Array.sub flow_ids 0 k) :: acc)
  in
  let batches = pull [] in
  {
    times = Array.concat (List.map fst batches);
    flow_ids = Array.concat (List.map snd batches);
    flows = s.stream_flows;
    duration = s.stream_duration;
  }

let concat a b ~offset =
  let na = packet_count a and nb = packet_count b in
  let base = Array.length a.flows in
  let times = Array.make (na + nb) 0.0 and flow_ids = Array.make (na + nb) 0 in
  Array.blit a.times 0 times 0 na;
  Array.blit a.flow_ids 0 flow_ids 0 na;
  for i = 0 to nb - 1 do
    times.(na + i) <- b.times.(i) +. offset;
    flow_ids.(na + i) <- b.flow_ids.(i) + base
  done;
  sort_by_time times flow_ids;
  {
    times;
    flow_ids;
    flows = Array.append a.flows b.flows;
    duration = Float.max a.duration (offset +. b.duration);
  }
