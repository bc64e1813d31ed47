module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask
module Fmatch = Gf_flow.Fmatch

let algorithm = "nuevomatch"

let max_isets = 12
let model_buckets = 512

(* Fraction of total entries the delta may reach before retraining. *)
let retrain_fraction = 0.25

(* The envelope of an entry's projection onto a field: every flow matching
   the entry has that field's value in [lo, hi] (lo = pattern,
   hi = pattern | ~mask, which bounds because value = pattern | extra
   bits). *)
let envelope field (e : 'a Entry.t) =
  let pattern = Flow.get (Fmatch.pattern e.fmatch) field in
  let mask = Mask.get (Fmatch.mask e.fmatch) field in
  let hi = pattern lor (Field.full_mask field land lnot mask) in
  (pattern, hi)

type 'a iset = {
  field : Field.t; (* the dimension this iSet's model indexes *)
  sorted : 'a Entry.t array; (* by envelope lo; envelopes pairwise disjoint *)
  los : int array;
  his : int array;
  (* Learned CDF over the key range actually occupied: [base] and
     [bucket_width] map a key to a bucket whose start index bounds the
     local search — the RMI error-bounded prediction. *)
  base : int;
  bucket_width : int;
  bucket_start : int array;
}

type 'a t = {
  by_key : (int, 'a Entry.t) Hashtbl.t;
  mutable isets : 'a iset list;
  remainder : 'a Tss.t; (* static entries that fit no iSet *)
  delta : 'a Tss.t; (* dynamic inserts since last training *)
  mutable iset_keys : (int, unit) Hashtbl.t; (* keys frozen inside iSet arrays *)
  mutable removed : (int, unit) Hashtbl.t; (* iSet keys logically deleted *)
  mutable trained_size : int;
}

let create () =
  {
    by_key = Hashtbl.create 64;
    isets = [];
    remainder = Tss.create ();
    delta = Tss.create ();
    iset_keys = Hashtbl.create 64;
    removed = Hashtbl.create 16;
    trained_size = 0;
  }


let build_iset field entries =
  let sorted = Array.of_list entries in
  Array.sort (fun a b -> compare (fst (envelope field a)) (fst (envelope field b))) sorted;
  let n = Array.length sorted in
  let los = Array.map (fun e -> fst (envelope field e)) sorted in
  let his = Array.map (fun e -> snd (envelope field e)) sorted in
  (* Learned CDF approximation over the occupied key range: for each of
     [model_buckets] equal sub-ranges of [los.(0), los.(n-1)], precompute
     the first array index whose lo falls at/after the range start.
     Prediction = bucket start; local search walks forward, bounded by the
     bucket's population (the RMI error bound). *)
  let base = los.(0) in
  let span = max 1 (los.(n - 1) - base) in
  let bucket_width = (span / model_buckets) + 1 in
  let bucket_start = Array.make (model_buckets + 1) n in
  let b = ref 0 in
  for i = 0 to n - 1 do
    while !b <= (los.(i) - base) / bucket_width do
      bucket_start.(!b) <- i;
      incr b
    done
  done;
  (* Remaining buckets already default to n. *)
  { field; sorted; los; his; base; bucket_width; bucket_start }

(* Greedy interval scheduling on one field: maximal set of pairwise-disjoint
   envelopes. *)
let split_disjoint field entries =
  let by_hi =
    List.sort
      (fun a b -> compare (snd (envelope field a)) (snd (envelope field b)))
      entries
  in
  let chosen = ref [] and rest = ref [] in
  let frontier = ref (-1) in
  List.iter
    (fun e ->
      let lo, hi = envelope field e in
      if lo > !frontier then begin
        chosen := e :: !chosen;
        frontier := hi
      end
      else rest := e :: !rest)
    by_hi;
  (!chosen, !rest)

(* Candidate model dimensions, widest/most discriminating first. *)
let candidate_fields =
  [
    Field.Ip_dst;
    Field.Ip_src;
    Field.Eth_dst;
    Field.Eth_src;
    Field.Tp_dst;
    Field.Tp_src;
    Field.Vlan;
    Field.In_port;
  ]

let retrain t =
  let live =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.by_key []
  in
  Tss.clear t.remainder;
  Tss.clear t.delta;
  Hashtbl.reset t.iset_keys;
  Hashtbl.reset t.removed;
  let rec carve rounds entries isets =
    if rounds = 0 || entries = [] then (List.rev isets, entries)
    else begin
      (* Pick the dimension yielding the largest disjoint set this round —
         NuevoMatch's per-iSet dimension selection. *)
      let best =
        List.fold_left
          (fun acc field ->
            let chosen, rest = split_disjoint field entries in
            match acc with
            | Some (_, best_chosen, _) when List.length chosen <= List.length best_chosen
              ->
                acc
            | _ -> Some (field, chosen, rest))
          None candidate_fields
      in
      match best with
      | None -> (List.rev isets, entries)
      | Some (field, chosen, rest) ->
          (* A tiny iSet is not worth a model; push it to the remainder. *)
          if List.length chosen < 4 then (List.rev isets, entries)
          else begin
            List.iter
              (fun (e : 'a Entry.t) -> Hashtbl.replace t.iset_keys e.key ())
              chosen;
            carve (rounds - 1) rest (build_iset field chosen :: isets)
          end
    end
  in
  let isets, rest = carve max_isets live [] in
  t.isets <- isets;
  List.iter (fun e -> Tss.insert t.remainder e) rest;
  t.trained_size <- List.length live

let insert t entry =
  if Hashtbl.mem t.by_key entry.Entry.key then
    invalid_arg "Nuevomatch.insert: duplicate key";
  Hashtbl.add t.by_key entry.Entry.key entry;
  Tss.insert t.delta entry;
  let total = Hashtbl.length t.by_key in
  if
    float_of_int (Tss.size t.delta)
    > Float.max 64.0 (retrain_fraction *. float_of_int total)
  then retrain t

let remove t key =
  match Hashtbl.find_opt t.by_key key with
  | None -> false
  | Some _ ->
      Hashtbl.remove t.by_key key;
      if Hashtbl.mem t.iset_keys key then Hashtbl.replace t.removed key ()
      else if not (Tss.remove t.remainder key) then ignore (Tss.remove t.delta key);
      true

let size t = Hashtbl.length t.by_key

let lookup_iset t iset flow work =
  let key = Flow.get flow iset.field in
  let n = Array.length iset.sorted in
  if n = 0 then (None, work)
  else begin
    let b = max 0 ((key - iset.base) / iset.bucket_width) in
    (* The model predicts a position; the true candidate is the entry with
       the largest lo <= key.  Because envelopes are pairwise disjoint, no
       earlier envelope can reach the key, so that single candidate is the
       only one to validate.  An envelope opened in an earlier bucket may
       span into this one, hence the -1 rewind before the forward scan. *)
    let start = max 0 (iset.bucket_start.(min b model_buckets) - 1) in
    let work = ref (work + 1) (* model evaluation *) in
    let candidate = ref (-1) in
    let i = ref start in
    let continue = ref true in
    while !continue && !i < n do
      if iset.los.(!i) > key then continue := false
      else begin
        incr work;
        candidate := !i;
        incr i
      end
    done;
    let best =
      if !candidate < 0 then None
      else begin
        let e = iset.sorted.(!candidate) in
        if
          iset.his.(!candidate) >= key
          && (not (Hashtbl.mem t.removed e.Entry.key))
          && Entry.matches e flow
        then Some e
        else None
      end
    in
    (best, !work)
  end

let lookup t flow =
  let best = ref None in
  let work = ref 0 in
  let consider = function
    | None -> ()
    | Some (e : 'a Entry.t) -> (
        match !best with
        | Some b when not (Entry.better e b) -> ()
        | _ -> best := Some e)
  in
  List.iter
    (fun iset ->
      let r, w = lookup_iset t iset flow !work in
      work := w;
      consider r)
    t.isets;
  let r, w = Tss.lookup t.remainder flow in
  work := !work + w;
  consider r;
  let r, w = Tss.lookup t.delta flow in
  work := !work + w;
  consider r;
  (!best, !work)

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_key []

let clear t =
  Hashtbl.reset t.by_key;
  t.isets <- [];
  Tss.clear t.remainder;
  Tss.clear t.delta;
  Hashtbl.reset t.iset_keys;
  Hashtbl.reset t.removed;
  t.trained_size <- 0

let iset_count t = List.length t.isets

let delta_size t = Tss.size t.delta

let remainder_size t = Tss.size t.remainder
