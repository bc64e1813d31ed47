module Field = Gf_flow.Field
module Flow = Gf_flow.Flow
module Mask = Gf_flow.Mask

type step = {
  table_id : int;
  outcome : [ `Rule of Ofrule.t | `Table_miss ];
  action : Action.t;
  wildcard : Mask.t;
  flow_in : Flow.t;
  flow_out : Flow.t;
  probes : int;
}

type t = {
  input : Flow.t;
  steps : step array;
  terminal : Action.terminal;
  output : Flow.t;
}

let length t = Array.length t.steps

let path t = Array.to_list (Array.map (fun s -> s.table_id) t.steps)

let step_fields s = Mask.fields s.wildcard

(* Re-base consulted wildcards onto the flow entering step [first]: a bit of
   field [f] consulted at step [k] constrains the segment-entry flow only if
   no action in steps [first..k-1] overwrote [f].  Fields are overwritten
   atomically (set-field replaces the whole field), so per-field tracking is
   exact. *)
let wildcard_of_steps steps ~first ~last =
  if not (first >= 0 && last < Array.length steps && first <= last) then
    invalid_arg "Traversal.wildcard_of_steps: segment out of range";
  let overwritten = ref Field.Set.empty in
  let acc = ref Mask.empty in
  for k = first to last do
    let s = steps.(k) in
    let effective =
      Field.Set.fold (fun f m -> Mask.set m f 0) !overwritten s.wildcard
    in
    acc := Mask.union !acc effective;
    List.iter
      (fun (f, _) -> overwritten := Field.Set.add f !overwritten)
      s.action.Action.set_fields
  done;
  !acc

let segment_wildcard t ~first ~last = wildcard_of_steps t.steps ~first ~last

let megaflow_wildcard t = segment_wildcard t ~first:0 ~last:(Array.length t.steps - 1)

(* The commit is the composition of the segment's actual set-field actions
   (last writer per field wins), not the before/after flow diff: a rule may
   set a field to the value the parent flow already carried, and the rewrite
   must still be replayed for other packets matching the cached entry. *)
let commit_of_steps steps ~first ~last =
  if not (first >= 0 && last < Array.length steps && first <= last) then
    invalid_arg "Traversal.commit_of_steps: segment out of range";
  let written = Array.make Field.count None in
  for k = first to last do
    List.iter
      (fun (f, v) -> written.(Field.index f) <- Some v)
      steps.(k).action.Action.set_fields
  done;
  let acc = ref [] in
  for i = Field.count - 1 downto 0 do
    match written.(i) with
    | Some v -> acc := (Field.of_index i, v) :: !acc
    | None -> ()
  done;
  !acc

let segment_commit t ~first ~last = commit_of_steps t.steps ~first ~last

let pp fmt t =
  Format.fprintf fmt "@[<v>traversal (%d steps) input %a@," (Array.length t.steps)
    Flow.pp t.input;
  Array.iter
    (fun s ->
      Format.fprintf fmt "  T%d %s -> %a@," s.table_id
        (match s.outcome with
        | `Rule r -> Printf.sprintf "rule#%d" r.Ofrule.id
        | `Table_miss -> "miss")
        Action.pp s.action)
    t.steps;
  Format.fprintf fmt "  terminal: %a@]" Action.pp_terminal t.terminal
