(* Prometheus text exposition for a registry snapshot. *)

(* --------------------------- Prometheus text --------------------------- *)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let label_string labels =
  match labels with
  | [] -> ""
  | _ ->
      let one (k, v) =
        Printf.sprintf "%s=%S" (sanitize_name k) v
      in
      "{" ^ String.concat "," (List.map one labels) ^ "}"

let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" v

(* Histograms are exposed summary-style (pre-computed quantiles + _sum +
   _count): log-linear buckets would need hundreds of `le` series each,
   and the quantiles are what the scrape is for. *)
let quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let prometheus_to_buffer buf registry =
  let typed = Hashtbl.create 16 in
  let header name help kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  Registry.iter
    (fun ~name ~labels ~help metric ->
      let name = sanitize_name name in
      match metric with
      | Registry.Counter r ->
          header name help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (label_string labels) !r)
      | Registry.Gauge r ->
          header name help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (label_string labels) (fmt_value !r))
      | Registry.Histogram h ->
          header name help "summary";
          List.iter
            (fun q ->
              let ls = labels @ [ ("quantile", Printf.sprintf "%g" q) ] in
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name (label_string ls)
                   (fmt_value (Histogram.quantile h q))))
            quantiles;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (label_string labels)
               (fmt_value (Histogram.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (label_string labels)
               (Histogram.count h)))
    registry

let prometheus registry =
  let buf = Buffer.create 4096 in
  prometheus_to_buffer buf registry;
  Buffer.contents buf
