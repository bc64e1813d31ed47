module Field = Gf_flow.Field
module Mask = Gf_flow.Mask
module Traversal = Gf_pipeline.Traversal

type scheme = Disjoint | Random | One_to_one

type segment = { first : int; last : int }

let segment_length s = s.last - s.first + 1

let step_fieldsets traversal =
  Array.map Traversal.step_fields traversal.Traversal.steps

(* Connected-overlap check.  Steps that consult no field (default hops)
   constrain nothing and never break coherence. *)
let coherent fieldsets ~first ~last =
  let idxs =
    List.filter
      (fun i -> not (Field.Set.is_empty fieldsets.(i)))
      (List.init (last - first + 1) (fun k -> first + k))
  in
  match idxs with
  | [] | [ _ ] -> true
  | seed :: _ ->
      (* BFS over the overlap graph. *)
      let visited = Hashtbl.create 8 in
      let queue = Queue.create () in
      Queue.add seed queue;
      Hashtbl.replace visited seed ();
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        List.iter
          (fun j ->
            if
              (not (Hashtbl.mem visited j))
              && not (Field.Set.disjoint fieldsets.(i) fieldsets.(j))
            then begin
              Hashtbl.replace visited j ();
              Queue.add j queue
            end)
          idxs
      done;
      List.for_all (Hashtbl.mem visited) idxs

(* Union-find root with path compression, over field indices. *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = find parent p in
    parent.(i) <- r;
    r
  end

(* Per-(first, last) segment score and tie-break penalty, precomputed.
   Score: length when the segment is coherent, 0 otherwise.  Penalty: the
   wildcard bits an incoherent segment's cache entry would carry — used to
   pick the least constraining merge when K forces boundary crossings.

   Each row [first] is filled as [last] grows, reading each step's
   wildcard slots once per cell:
   - coherence is a union-find over fields.  A step joins all the fields it
     consults, so two steps are connected through shared fields exactly when
     their fields share a root, and the segment is [coherent] iff the fields
     consulted so far form at most one group;
   - the penalty is [Traversal.wildcard_of_steps]'s running union under the
     same overwrite rule, with its [Mask.bits] kept up to date slot by slot. *)
let tables_of traversal =
  let steps = traversal.Traversal.steps in
  let n = Array.length steps in
  let writes =
    Array.map
      (fun s ->
        List.fold_left
          (fun b (f, _) -> b lor (1 lsl Field.index f))
          0 s.Traversal.action.Gf_pipeline.Action.set_fields)
      steps
  in
  let score = Array.make_matrix n n 0 in
  let penalty = Array.make_matrix n n 0 in
  let parent = Array.make Field.count 0 in
  let union = Array.make Field.count 0 in
  for first = 0 to n - 1 do
    for i = 0 to Field.count - 1 do
      parent.(i) <- i;
      union.(i) <- 0
    done;
    let seen = ref 0 and groups = ref 0 and overwritten = ref 0 and bits = ref 0 in
    for last = first to n - 1 do
      let w = steps.(last).Traversal.wildcard in
      let root = ref (-1) in
      for i = 0 to Field.count - 1 do
        let v = Mask.slot w i in
        if v <> 0 then begin
          if !seen land (1 lsl i) = 0 then begin
            seen := !seen lor (1 lsl i);
            incr groups
          end;
          let r = find parent i in
          if !root < 0 then root := r
          else if r <> !root then begin
            parent.(r) <- !root;
            decr groups
          end;
          let u = union.(i) in
          if !overwritten land (1 lsl i) = 0 && v lor u <> u then begin
            bits := !bits + Gf_util.Bitops.popcount (v land lnot u);
            union.(i) <- v lor u
          end
        end
      done;
      overwritten := !overwritten lor writes.(last);
      if !groups <= 1 then score.(first).(last) <- last - first + 1
      else penalty.(first).(last) <- !bits
    done
  done;
  (score, penalty)

let evaluate traversal segments =
  let score, penalty = tables_of traversal in
  List.fold_left
    (fun (s, p) seg ->
      (s + score.(seg.first).(seg.last), p + penalty.(seg.first).(seg.last)))
    (0, 0) segments

(* (score, penalty) values ordered: higher score first, then lower
   penalty. *)
let better (s1, p1) (s2, p2) = s1 > s2 || (s1 = s2 && p1 < p2)

let disjoint_partition traversal ~max_segments =
  let n = Traversal.length traversal in
  let kmax = min max_segments n in
  let seg_score, seg_penalty = tables_of traversal in
  let dp = Array.make_matrix (n + 1) (kmax + 1) None in
  let parent = Array.make_matrix (n + 1) (kmax + 1) (-1) in
  dp.(0).(0) <- Some (0, 0);
  for i = 1 to n do
    for k = 1 to min kmax i do
      for j = k - 1 to i - 1 do
        match dp.(j).(k - 1) with
        | None -> ()
        | Some (s, p) ->
            let v = (s + seg_score.(j).(i - 1), p + seg_penalty.(j).(i - 1)) in
            let improves =
              match dp.(i).(k) with None -> true | Some cur -> better v cur
            in
            if improves then begin
              dp.(i).(k) <- Some v;
              parent.(i).(k) <- j
            end
      done
    done
  done;
  (* Fewest segments among the best (score, penalty): iterate k ascending
     and replace only on strict improvement. *)
  let best_k = ref 1 in
  for k = 2 to kmax do
    match (dp.(n).(k), dp.(n).(!best_k)) with
    | Some v, Some cur -> if better v cur then best_k := k
    | Some _, None -> best_k := k
    | None, _ -> ()
  done;
  let rec rebuild i k acc =
    if k = 0 then acc
    else
      let j = parent.(i).(k) in
      rebuild j (k - 1) ({ first = j; last = i - 1 } :: acc)
  in
  rebuild n !best_k []

let random_partition rng ~n ~max_segments =
  let kmax = min max_segments n in
  let m = 1 + Gf_util.Rng.int rng kmax in
  (* Choose m-1 distinct cut points among the n-1 gaps. *)
  let gaps = Array.init (n - 1) (fun i -> i + 1) in
  Gf_util.Rng.shuffle rng gaps;
  let cuts = Array.sub gaps 0 (min (m - 1) (n - 1)) in
  Array.sort compare cuts;
  let bounds = Array.to_list cuts @ [ n ] in
  let rec build start = function
    | [] -> []
    | b :: rest -> { first = start; last = b - 1 } :: build b rest
  in
  build 0 bounds

let one_to_one ~n ~max_segments =
  let kmax = min max_segments n in
  let head = List.init (kmax - 1) (fun i -> { first = i; last = i }) in
  head @ [ { first = kmax - 1; last = n - 1 } ]

let partition ?rng scheme ~max_segments traversal =
  if max_segments < 1 then invalid_arg "Partitioner.partition: max_segments < 1";
  let n = Traversal.length traversal in
  if n = 0 then invalid_arg "Partitioner.partition: empty traversal";
  if n = 1 then [ { first = 0; last = 0 } ]
  else
    match scheme with
    | Disjoint -> disjoint_partition traversal ~max_segments
    | One_to_one -> one_to_one ~n ~max_segments
    | Random -> (
        match rng with
        | None -> invalid_arg "Partitioner.partition: Random requires ~rng"
        | Some rng -> random_partition rng ~n ~max_segments)

let brute_force_best traversal ~max_segments =
  let n = Traversal.length traversal in
  let seg_score, seg_penalty = tables_of traversal in
  let best = ref None in
  let rec go start count score penalty =
    if start = n then begin
      let v = (score, penalty, count) in
      let improves =
        match !best with
        | None -> true
        | Some (s, p, c) ->
            better (score, penalty) (s, p)
            || (score = s && penalty = p && count < c)
      in
      if improves then best := Some v
    end
    else if count < max_segments then
      for last = start to n - 1 do
        go (last + 1) (count + 1)
          (score + seg_score.(start).(last))
          (penalty + seg_penalty.(start).(last))
      done
  in
  go 0 0 0 0;
  match !best with Some v -> v | None -> (0, 0, 0)
