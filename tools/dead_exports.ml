(* Dead-export gate: list every [val] of a [lib/**/*.mli] that no source
   file outside its own module refers to, and check that list against an
   allow-list.

     dead_exports ALLOW_FILE

   Scans the [.ml]/[.mli] files under lib, bin, bench, benchmark, test and
   examples (run from the repository root).  A val [M.f] (or [M.Sub.f]
   inside a [module Sub : sig ... end]) counts as used when a file other
   than [m.ml]/[m.mli] of the same directory writes a path ending in
   [M.f] (after expanding that file's [module A = P] aliases), or opens
   [M] ([open M], [let open M in], [M.( ... )]) and writes a bare [f].
   Comments and string literals are skipped, so a [{!M.f}] doc reference
   is not a caller.

   Each allow-list line is [M.f reason]; blank lines and [#] comments are
   ignored.  Exit 1 if an unused val is not allow-listed, if an entry
   has no reason, or if an entry names a val that is now used or gone
   (stale entries would hide the next dead export). *)

let roots = [ "lib"; "bin"; "bench"; "benchmark"; "test"; "examples" ]

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then
           if entry = "_build" || entry.[0] = '.' then [] else source_files path
         else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------ tokens ------------------------------ *)

type token =
  | Path of string list  (* [A.B.c], [A.B] or a bare [c] *)
  | Local_open of string list  (* [A.B.(], [A.B.\[] or [A.B.{] *)
  | Sym of char

let is_ident_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* Skip a string literal opening at [i] ('"'); returns the index after it. *)
let rec skip_string s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | '\\' -> skip_string s (i + 2)
    | '"' -> i + 1
    | _ -> skip_string s (i + 1)

(* [{id|...|id}] at [i] ('{'): the index after it, or [None] if [i] does
   not open a quoted string. *)
let skip_quoted s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do
    incr j
  done;
  if !j < n && s.[!j] = '|' then begin
    let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
    let len = String.length close in
    let k = ref (!j + 1) in
    while !k + len <= n && String.sub s !k len <> close do
      incr k
    done;
    Some (min n (!k + len))
  end
  else None

(* A character literal at [i] ('\''): the index after it, or [None] for a
   type variable. *)
let skip_char s i =
  let n = String.length s in
  if i + 1 < n && s.[i + 1] = '\\' then begin
    let k = ref (i + 2) in
    while !k < n && s.[!k] <> '\'' do
      incr k
    done;
    Some (!k + 1)
  end
  else if i + 2 < n && s.[i + 2] = '\'' then Some (i + 3)
  else None

let rec skip_comment s i depth =
  let n = String.length s in
  if i >= n then n
  else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
    skip_comment s (i + 2) (depth + 1)
  else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
    if depth = 1 then i + 2 else skip_comment s (i + 2) (depth - 1)
  else if s.[i] = '"' then skip_comment s (skip_string s (i + 1)) depth
  else skip_comment s (i + 1) depth

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let rec go i =
    if i < n then
      let c = s.[i] in
      if c = '(' && i + 1 < n && s.[i + 1] = '*' then go (skip_comment s (i + 2) 1)
      else if c = '"' then go (skip_string s (i + 1))
      else if c = '{' && Option.is_some (skip_quoted s i) then
        go (Option.get (skip_quoted s i))
      else if c = '\'' then go (Option.value (skip_char s i) ~default:(i + 1))
      else if is_ident_start c then path i []
      else begin
        if c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r' then toks := Sym c :: !toks;
        go (i + 1)
      end
  and path i acc =
    let j = ref i in
    while !j < n && is_ident_char s.[!j] do
      incr j
    done;
    let comp = String.sub s i (!j - i) in
    let acc = comp :: acc in
    let j = !j in
    if is_upper comp && j + 1 < n && s.[j] = '.' then
      if is_ident_start s.[j + 1] then path (j + 1) acc
      else if s.[j + 1] = '(' || s.[j + 1] = '[' || s.[j + 1] = '{' then begin
        toks := Local_open (List.rev acc) :: !toks;
        go (j + 1)
      end
      else begin
        toks := Path (List.rev acc) :: !toks;
        go j
      end
    else begin
      toks := Path (List.rev acc) :: !toks;
      go j
    end
  in
  go 0;
  Array.of_list (List.rev !toks)

(* ------------------------------ exports ----------------------------- *)

(* Top-level and [module Sub : sig] vals of one [.mli], as paths
   [[M; f]] / [[M; Sub; f]].  Module types are skipped. *)
let exported_vals ~modname toks =
  let vals = ref [] in
  let n = Array.length toks in
  (* Each open [sig] pushes [Some sub] (a submodule's signature) or
     [None] (a module type, whose vals export nothing). *)
  let stack = ref [] in
  let scope () =
    if List.mem None !stack then None
    else Some (modname :: List.rev_map Option.get !stack)
  in
  for i = 0 to n - 1 do
    match toks.(i) with
    | Path [ "sig" ] ->
        let frame =
          if i >= 3 then
            match (toks.(i - 3), toks.(i - 2), toks.(i - 1)) with
            | Path [ "module" ], Path [ sub ], Sym ':' -> Some sub
            | _ -> None
          else None
        in
        stack := frame :: !stack
    | Path [ "end" ] -> ( match !stack with _ :: rest -> stack := rest | [] -> ())
    | Path [ "val" ] when i + 1 < n -> (
        match (toks.(i + 1), scope ()) with
        | Path [ name ], Some prefix -> vals := (prefix @ [ name ]) :: !vals
        | _ -> ())
    | _ -> ()
  done;
  List.rev !vals

(* ----------------------------- references ---------------------------- *)

(* Every value path a file writes, with [module A = P] aliases expanded,
   plus [[M; f]] for each bare [f] under an open of [M]. *)
let references toks =
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 and opened = ref [] in
  Array.iteri
    (fun i tok ->
      match tok with
      | Path [ "module" ] when i + 3 < n -> (
          match (toks.(i + 1), toks.(i + 2), toks.(i + 3)) with
          | Path [ a ], Sym '=', Path p
            when is_upper a && List.for_all is_upper p
                 && (i + 4 >= n || toks.(i + 4) <> Sym '(') ->
              Hashtbl.replace aliases a p
          | _ -> ())
      | Path [ "open" ] when i + 1 < n -> (
          match toks.(i + 1) with
          | Path p when List.for_all is_upper p -> opened := p :: !opened
          | _ -> ())
      | Local_open p -> opened := p :: !opened
      | Path _ | Sym _ -> ())
    toks;
  let rec expand depth = function
    | a :: rest when depth < 8 && Hashtbl.mem aliases a ->
        expand (depth + 1) (Hashtbl.find aliases a @ rest)
    | p -> p
  in
  let opened = List.map (expand 0) !opened in
  Array.fold_left
    (fun acc tok ->
      match tok with
      | Path [ f ] when not (is_upper f) -> List.map (fun o -> o @ [ f ]) opened @ acc
      | Path p when List.length p > 1 -> expand 0 p :: acc
      | Path _ | Local_open _ | Sym _ -> acc)
    [] toks

(* ------------------------------- main ------------------------------- *)

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let own_module ~mli path =
  Filename.dirname path = Filename.dirname mli
  && Filename.remove_extension path = Filename.remove_extension mli

let read_allow path =
  read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some k ->
               let reason = String.sub line k (String.length line - k) in
               Some (String.sub line 0 k, String.trim reason)
           | None -> Some (line, ""))

let () =
  let allow_file =
    match Sys.argv with
    | [| _; f |] -> f
    | _ ->
        prerr_endline "usage: dead_exports ALLOW_FILE";
        exit 2
  in
  let files = List.concat_map source_files (List.filter Sys.file_exists roots) in
  (* Every suffix (two components or more) of every path a file writes,
     mapped to the files writing it. *)
  let writers = Hashtbl.create 4096 in
  let rec add_suffixes f = function
    | _ :: (_ :: _ as tl) as p ->
        Hashtbl.add writers p f;
        add_suffixes f tl
    | _ -> ()
  in
  List.iter
    (fun f -> List.iter (add_suffixes f) (references (tokenize (read_file f))))
    files;
  let mlis =
    List.filter
      (fun f -> Filename.check_suffix f ".mli" && String.starts_with ~prefix:"lib/" f)
      files
  in
  let unused =
    List.concat_map
      (fun mli ->
        exported_vals ~modname:(module_of mli) (tokenize (read_file mli))
        |> List.filter (fun v ->
               not
                 (List.exists
                    (fun f -> not (own_module ~mli f))
                    (Hashtbl.find_all writers v)))
        |> List.map (fun v -> (String.concat "." v, mli)))
      mlis
  in
  let allow = read_allow allow_file in
  let failed = ref false in
  let fail fmt =
    failed := true;
    Printf.eprintf fmt
  in
  List.iter
    (fun (v, mli) ->
      if not (List.mem_assoc v allow) then
        fail "%s: %s is exported but has no caller outside its module\n" mli v)
    unused;
  List.iter
    (fun (v, reason) ->
      if reason = "" then fail "%s: allow-list entry %s gives no reason\n" allow_file v;
      if not (List.mem_assoc v unused) then
        fail "%s: %s is allow-listed but is used or gone; drop the entry\n" allow_file v)
    allow;
  if !failed then exit 1;
  Printf.printf "OK (%d exports without an outside caller, all allow-listed)\n"
    (List.length unused)
