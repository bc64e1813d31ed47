module Field = Gf_flow.Field

type table_spec = { table_id : int; table_name : string; fields : Field.t list }

type hop = { table : int; hop_fields : Field.t list }

type traversal_spec = { hops : hop list }

type spec = {
  spec_name : string;
  entry_table : int;
  tables : table_spec list;
  traversals : traversal_spec list;
}

let validate spec =
  let ( let* ) = Result.bind in
  let table_ids = List.map (fun t -> t.table_id) spec.tables in
  let sorted = List.sort_uniq compare table_ids in
  let* () =
    if List.length sorted <> List.length table_ids then Error "duplicate table ids"
    else Ok ()
  in
  let* () =
    if List.mem spec.entry_table table_ids then Ok ()
    else Error "entry table not declared"
  in
  let find_table id = List.find_opt (fun t -> t.table_id = id) spec.tables in
  let check_traversal i tr =
    let* () = if tr.hops = [] then Error (Printf.sprintf "traversal %d empty" i) else Ok () in
    let rec check prev = function
      | [] -> Ok ()
      | hop :: rest -> (
          match find_table hop.table with
          | None -> Error (Printf.sprintf "traversal %d: unknown table %d" i hop.table)
          | Some tspec ->
              if hop.table <= prev then
                Error (Printf.sprintf "traversal %d: tables not increasing at %d" i hop.table)
              else if
                List.exists (fun f -> not (List.mem f tspec.fields)) hop.hop_fields
              then
                Error
                  (Printf.sprintf "traversal %d: hop fields exceed table %d fields" i
                     hop.table)
              else check hop.table rest)
    in
    check min_int tr.hops
  in
  let rec check_all i = function
    | [] -> Ok ()
    | tr :: rest ->
        let* () = check_traversal i tr in
        check_all (i + 1) rest
  in
  check_all 0 spec.traversals

let instantiate spec =
  (match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Builder.instantiate: " ^ msg));
  let ordered = List.sort (fun a b -> compare a.table_id b.table_id) spec.tables in
  let rec build = function
    | [] -> []
    | [ last ] ->
        [
          Oftable.create ~id:last.table_id ~name:last.table_name
            ~match_fields:(Field.Set.of_list last.fields)
            ~miss:(Action.drop ());
        ]
    | t :: (next :: _ as rest) ->
        Oftable.create ~id:t.table_id ~name:t.table_name
          ~match_fields:(Field.Set.of_list t.fields)
          ~miss:(Action.goto next.table_id)
        :: build rest
  in
  Pipeline.create ~name:spec.spec_name ~entry:spec.entry_table (build ordered)

let unique_paths spec =
  spec.traversals
  |> List.map (fun tr -> List.map (fun h -> h.table) tr.hops)
  |> List.sort_uniq compare
