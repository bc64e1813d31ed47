type t = {
  name : string;
  entry : int;
  tables : (int, Oftable.t) Hashtbl.t;
  mutable version : int;
  mutable next_rule_id : int;
}

let create ~name ~entry tables =
  let by_id = Hashtbl.create (List.length tables) in
  List.iter
    (fun table ->
      let id = Oftable.id table in
      if Hashtbl.mem by_id id then
        invalid_arg (Printf.sprintf "Pipeline.create: duplicate table id %d" id);
      Hashtbl.add by_id id table)
    tables;
  if not (Hashtbl.mem by_id entry) then
    invalid_arg "Pipeline.create: entry table not present";
  { name; entry; tables = by_id; version = 0; next_rule_id = 0 }

let entry t = t.entry
let version t = t.version

(* Per-domain replica for parallel replay: each table is an
   [Oftable.copy], which owns its rule set and rebuild flag but shares
   the source's built (read-only) tuple index, so domains may look up
   side by side and a rule change rebuilds only the changed replica.
   Rule records themselves are immutable and stay shared.
   Preserves [version] (cache entries installed from the replica carry the
   same revalidation version) and [next_rule_id]. *)
let copy t =
  let tables = Hashtbl.create (Hashtbl.length t.tables) in
  Hashtbl.iter (fun id table -> Hashtbl.add tables id (Oftable.copy table)) t.tables;
  { t with tables }

let set_unwildcard t mode = Hashtbl.iter (fun _ table -> Oftable.set_unwildcard table mode) t.tables

let table t id =
  match Hashtbl.find_opt t.tables id with
  | Some table -> table
  | None -> raise Not_found

let table_opt t id = Hashtbl.find_opt t.tables id

let tables t =
  Hashtbl.fold (fun _ table acc -> table :: acc) t.tables []
  |> List.sort (fun a b -> compare (Oftable.id a) (Oftable.id b))

let table_count t = Hashtbl.length t.tables

let rule_count t =
  Hashtbl.fold (fun _ table acc -> acc + Oftable.size table) t.tables 0

let add_rule t ~table:table_id rule =
  Oftable.add_rule (table t table_id) rule;
  t.version <- t.version + 1

let remove_rule t ~table:table_id rule_id =
  let removed = Oftable.remove_rule (table t table_id) rule_id in
  if removed then t.version <- t.version + 1;
  removed

let fresh_rule_id t =
  let id = t.next_rule_id in
  t.next_rule_id <- id + 1;
  id

let pp fmt t =
  Format.fprintf fmt "@[<v>pipeline %s (entry %d, %d tables, %d rules)@,%a@]" t.name
    t.entry (table_count t) (rule_count t)
    (Format.pp_print_list Oftable.pp)
    (tables t)
