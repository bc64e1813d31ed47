type algo = [ `Linear | `Tss | `Nuevomatch ]

let algo_name = function
  | `Linear -> "linear"
  | `Tss -> "tss"
  | `Nuevomatch -> "nuevomatch"

let algo_of_string = function
  | "linear" -> Some `Linear
  | "tss" -> Some `Tss
  | "nuevomatch" | "nm" -> Some `Nuevomatch
  | _ -> None

type 'a ops = {
  insert : 'a Entry.t -> unit;
  remove : int -> bool;
  size : unit -> int;
  lookup : Gf_flow.Flow.t -> 'a Entry.t option * int;
  lookup_disjoint : Gf_flow.Flow.t -> 'a Entry.t option * int;
  prepare_replay : 'a Entry.t -> (unit -> int) option;
}

type 'a t = { algo : algo; ops : 'a ops }

let wrap (type p) (module C : Classifier_intf.S) : p ops =
  let c : p C.t = C.create () in
  {
    insert = C.insert c;
    remove = C.remove c;
    size = (fun () -> C.size c);
    lookup = C.lookup c;
    lookup_disjoint = C.lookup c;
    (* Stateless search: a hit's work is the same only while the entry set
       is unchanged, which callers guard themselves. *)
    prepare_replay = (fun _ -> None);
  }

(* TSS gets a dedicated wrapper so disjoint-entry users (the Megaflow cache)
   can use the ranked first-match walk. *)
let wrap_tss (type p) () : p ops =
  let c : p Tss.t = Tss.create () in
  {
    insert = Tss.insert c;
    remove = Tss.remove c;
    size = (fun () -> Tss.size c);
    lookup = Tss.lookup c;
    lookup_disjoint = Tss.lookup_first c;
    prepare_replay = (fun e -> Tss.prepare_first c e);
  }

let create algo =
  let ops =
    match algo with
    | `Linear -> wrap (module Linear)
    | `Tss -> wrap_tss ()
    | `Nuevomatch -> wrap (module Nuevomatch)
  in
  { algo; ops }

let algo t = t.algo
let insert t e = t.ops.insert e
let remove t key = t.ops.remove key
let size t = t.ops.size ()
let lookup t flow = t.ops.lookup flow
let lookup_disjoint t flow = t.ops.lookup_disjoint flow
let prepare_replay t entry = t.ops.prepare_replay entry
