(* Test-only reference for Gf_offload.Heavy_hitter: the sketch it replaced,
   which indexes rows through a [Flow.Tbl] and finds the head of a count
   run through an [Int_tbl] boundary map.  The differential property in
   test_offload.ml runs both side by side; every count, error bound, size
   and top-n list must agree after every operation. *)

module Flow = Gf_flow.Flow
module Int_tbl = Gf_util.Int_tbl

(* Stream-summary layout: rows [0, size) of the flat arrays hold the tracked
   entries sorted by count descending.  [index] maps a tracked flow to its
   row; [boundary] maps a count value to the leftmost row holding it.  An
   increment of row [i] swaps it with the leftmost row of its equal-count
   run (one O(1) swap keeps the array sorted), then bumps the count there.
   The minimum entry is always row [size - 1]. *)
type t = {
  mutable k : int;
  mutable flows : Flow.t array;
  mutable counts : int array;
  mutable errs : int array;
  index : int Flow.Tbl.t;
  boundary : int Int_tbl.t;
  mutable size : int;
  mutable observed : int;
}

let create ~k =
  if k < 1 then invalid_arg "Heavy_hitter.create: k must be >= 1";
  {
    k;
    flows = Array.make k Flow.zero;
    counts = Array.make k 0;
    errs = Array.make k 0;
    index = Flow.Tbl.create (2 * k);
    boundary = Int_tbl.create (2 * k);
    size = 0;
    observed = 0;
  }

let k t = t.k
let size t = t.size
let observed t = t.observed

(* Move row [i] (count c) to the head of its run and bump it to c+1,
   maintaining the sorted order and the boundary map. *)
let bump t i =
  let c = t.counts.(i) in
  let j = match Int_tbl.find_opt t.boundary c with Some j -> j | None -> i in
  if j <> i then begin
    let fi = t.flows.(i) and fj = t.flows.(j) in
    t.flows.(i) <- fj;
    t.flows.(j) <- fi;
    let tmp = t.errs.(i) in
    t.errs.(i) <- t.errs.(j);
    t.errs.(j) <- tmp;
    (* counts are equal by construction; no swap needed *)
    Flow.Tbl.replace t.index fi j;
    Flow.Tbl.replace t.index fj i
  end;
  (* shrink (or drop) the run of [c], which now starts one row later *)
  if j + 1 < t.size && t.counts.(j + 1) = c then
    Int_tbl.replace t.boundary c (j + 1)
  else Int_tbl.remove t.boundary c;
  t.counts.(j) <- c + 1;
  (* row [j] is now the rightmost of the (c+1)-run; it only becomes the
     boundary if no (c+1)-run existed before *)
  if not (Int_tbl.mem t.boundary (c + 1)) then
    Int_tbl.replace t.boundary (c + 1) j

let observe t flow =
  t.observed <- t.observed + 1;
  match Flow.Tbl.find_opt t.index flow with
  | Some i -> bump t i
  | None ->
      if t.size < t.k then begin
        let i = t.size in
        t.flows.(i) <- flow;
        t.counts.(i) <- 0;
        t.errs.(i) <- 0;
        Flow.Tbl.replace t.index flow i;
        if not (Int_tbl.mem t.boundary 0) then Int_tbl.replace t.boundary 0 i;
        t.size <- t.size + 1;
        bump t i
      end
      else begin
        (* replace the minimum entry; its count becomes the newcomer's
           error bound (space-saving inheritance) *)
        let i = t.k - 1 in
        let victim = t.flows.(i) in
        let c = t.counts.(i) in
        Flow.Tbl.remove t.index victim;
        t.flows.(i) <- flow;
        t.errs.(i) <- c;
        Flow.Tbl.replace t.index flow i;
        bump t i
      end

let count t flow =
  match Flow.Tbl.find_opt t.index flow with
  | Some i -> t.counts.(i)
  | None -> 0

let guaranteed t flow =
  match Flow.Tbl.find_opt t.index flow with
  | Some i -> t.counts.(i) - t.errs.(i)
  | None -> 0

let hot t ~threshold flow = guaranteed t flow >= threshold

let rebuild_boundary t =
  Int_tbl.reset t.boundary;
  for i = t.size - 1 downto 0 do
    Int_tbl.replace t.boundary t.counts.(i) i
  done

let decay t =
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let c = t.counts.(i) / 2 in
    if c = 0 then Flow.Tbl.remove t.index t.flows.(i)
    else begin
      let j = !live in
      if j <> i then begin
        t.flows.(j) <- t.flows.(i);
        Flow.Tbl.replace t.index t.flows.(j) j
      end;
      t.counts.(j) <- c;
      t.errs.(j) <- t.errs.(i) / 2;
      incr live
    end
  done;
  (* halving is monotone, so the surviving prefix is still sorted *)
  t.size <- !live;
  rebuild_boundary t

let retarget t ~k =
  if k < 1 then invalid_arg "Heavy_hitter.retarget: k must be >= 1";
  if k <> t.k then begin
    (* Rows are sorted by count descending, so truncation on shrink drops
       exactly the lowest-count entries. *)
    for i = k to t.size - 1 do
      Flow.Tbl.remove t.index t.flows.(i)
    done;
    let size = min t.size k in
    let flows = Array.make k Flow.zero in
    let counts = Array.make k 0 in
    let errs = Array.make k 0 in
    Array.blit t.flows 0 flows 0 size;
    Array.blit t.counts 0 counts 0 size;
    Array.blit t.errs 0 errs 0 size;
    t.k <- k;
    t.flows <- flows;
    t.counts <- counts;
    t.errs <- errs;
    t.size <- size;
    rebuild_boundary t
  end

let check_invariants t =
  let ok = ref (t.size >= 0 && t.size <= t.k) in
  (* counts sorted descending, errors within the space-saving bound *)
  for i = 0 to t.size - 1 do
    if i > 0 && t.counts.(i) > t.counts.(i - 1) then ok := false;
    if t.errs.(i) < 0 || t.errs.(i) > t.counts.(i) then ok := false
  done;
  (* index is exactly { flow_i -> i } over the live prefix *)
  if Flow.Tbl.length t.index <> t.size then ok := false;
  for i = 0 to t.size - 1 do
    match Flow.Tbl.find_opt t.index t.flows.(i) with
    | Some j when j = i -> ()
    | _ -> ok := false
  done;
  (* boundary maps each live count to the leftmost row of its run, and
     holds no other key *)
  let runs = Hashtbl.create 16 in
  for i = t.size - 1 downto 0 do
    Hashtbl.replace runs t.counts.(i) i
  done;
  if Int_tbl.length t.boundary <> Hashtbl.length runs then ok := false;
  Hashtbl.iter
    (fun c leftmost ->
      match Int_tbl.find_opt t.boundary c with
      | Some j when j = leftmost -> ()
      | _ -> ok := false)
    runs;
  !ok

let top t ~n =
  let rows = ref [] in
  for i = t.size - 1 downto 0 do
    rows := (t.flows.(i), t.counts.(i), t.errs.(i)) :: !rows
  done;
  let cmp (f1, c1, e1) (f2, c2, e2) =
    if c1 <> c2 then compare c2 c1
    else if e1 <> e2 then compare e1 e2
    else Flow.compare f1 f2
  in
  let sorted = List.stable_sort cmp !rows in
  List.filteri (fun i _ -> i < n) sorted
