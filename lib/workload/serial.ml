module Flow = Gf_flow.Flow
module Field = Gf_flow.Field

let ( let* ) = Result.bind

let flow_to_line flow =
  Flow.to_array flow |> Array.to_list
  |> List.map (Printf.sprintf "%x")
  |> String.concat " "

let flow_of_line line =
  let parts = String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") in
  if List.length parts <> Field.count then
    Error (Printf.sprintf "expected %d fields, got %d" Field.count (List.length parts))
  else
    try
      Ok (Flow.of_array (Array.of_list (List.map (fun p -> int_of_string ("0x" ^ p)) parts)))
    with _ -> Error ("malformed flow line: " ^ line)

let flows_header = "# gigaflow-flows v1"

let flows_to_string flows =
  let buf = Buffer.create (Array.length flows * 48) in
  Buffer.add_string buf flows_header;
  Buffer.add_char buf '\n';
  Array.iter
    (fun f ->
      Buffer.add_string buf (flow_to_line f);
      Buffer.add_char buf '\n')
    flows;
  Buffer.contents buf

let nonempty_lines text =
  String.split_on_char '\n' text |> List.map String.trim |> List.filter (( <> ) "")

let flows_of_string text =
  match nonempty_lines text with
  | header :: rest when header = flows_header ->
      let* flows =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            let* f = flow_of_line line in
            Ok (f :: acc))
          (Ok []) rest
      in
      Ok (Array.of_list (List.rev flows))
  | _ -> Error "missing gigaflow-flows header"

let trace_header = "# gigaflow-trace v1"

let trace_to_string (t : Trace.t) =
  let buf = Buffer.create (Trace.packet_count t * 24) in
  Buffer.add_string buf trace_header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "duration %.6f\n" t.Trace.duration);
  (* Flow table, indexed by flow id. *)
  Buffer.add_string buf (Printf.sprintf "flows %d\n" (Array.length t.Trace.flows));
  Array.iter
    (fun f ->
      Buffer.add_string buf (flow_to_line f);
      Buffer.add_char buf '\n')
    t.Trace.flows;
  Buffer.add_string buf (Printf.sprintf "packets %d\n" (Trace.packet_count t));
  Array.iteri
    (fun i time ->
      Buffer.add_string buf (Printf.sprintf "%.6f %d\n" time t.Trace.flow_ids.(i)))
    t.Trace.times;
  Buffer.contents buf

let trace_of_string text =
  match nonempty_lines text with
  | header :: rest when header = trace_header -> (
      let parse_kv key line =
        match String.split_on_char ' ' line with
        | [ k; v ] when k = key -> Ok v
        | _ -> Error (Printf.sprintf "expected %S line, got %S" key line)
      in
      match rest with
      | duration_line :: rest -> (
          let* duration_s = parse_kv "duration" duration_line in
          let* duration =
            match float_of_string_opt duration_s with
            | Some d -> Ok d
            | None -> Error "bad duration"
          in
          match rest with
          | flows_line :: rest ->
              let* nflows_s = parse_kv "flows" flows_line in
              let* nflows =
                match int_of_string_opt nflows_s with
                | Some n when n >= 0 -> Ok n
                | _ -> Error "bad flow count"
              in
              let rec take n acc = function
                | rest when n = 0 -> Ok (List.rev acc, rest)
                | [] -> Error "truncated flow table"
                | line :: rest ->
                    let* f = flow_of_line line in
                    take (n - 1) (f :: acc) rest
              in
              let* flow_list, rest = take nflows [] rest in
              let flows = Array.of_list flow_list in
              let* rest =
                match rest with
                | packets_line :: rest ->
                    let* _ = parse_kv "packets" packets_line in
                    Ok rest
                | [] -> Error "missing packets section"
              in
              let n = List.length rest in
              let times = Array.make n 0.0 and flow_ids = Array.make n 0 in
              let rec packets i = function
                | [] -> Ok ()
                | line :: rest -> (
                    match String.split_on_char ' ' line with
                    | [ time_s; id_s ] -> (
                        match (float_of_string_opt time_s, int_of_string_opt id_s) with
                        | Some time, Some flow_id when flow_id >= 0 && flow_id < nflows ->
                            times.(i) <- time;
                            flow_ids.(i) <- flow_id;
                            packets (i + 1) rest
                        | _ -> Error ("bad packet line: " ^ line))
                    | _ -> Error ("bad packet line: " ^ line))
              in
              let* () = packets 0 rest in
              Ok { Trace.times; flow_ids; flows; duration }
          | [] -> Error "missing flows section")
      | [] -> Error "missing duration")
  | _ -> Error "missing gigaflow-trace header"

let save ~path data =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let load ~path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  | exception Sys_error e -> Error e
