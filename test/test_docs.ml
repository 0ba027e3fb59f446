(* The documentation cannot drift from the tool: every [gcr] command in a
   fenced block of README, DESIGN or EXPERIMENTS names a subcommand that
   exists and only long flags that its [--help=plain] lists, and every
   GCR_* variable that README or DESIGN names is read in lib/ or bin/.
   The test's dune stanza copies the documents, the sources and the
   built [gcr] next to the test directory. *)

let root = Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name

let read_file file = In_channel.with_open_bin file In_channel.input_all

let help =
  let memo = Hashtbl.create 16 in
  fun words ->
    match Hashtbl.find_opt memo words with
    | Some text -> text
    | None ->
        let gcr = Filename.concat root "bin/gcr.exe" in
        let ic =
          Unix.open_process_args_in gcr (Array.of_list ((gcr :: words) @ [ "--help=plain" ]))
        in
        let text = In_channel.input_all ic in
        ignore (Unix.close_process_in ic : Unix.process_status);
        Hashtbl.replace memo words text;
        text

(* The names listed in a help page's COMMANDS section: its entries are
   indented seven spaces, their descriptions further. *)
let commands words =
  let rec section = function
    | [] -> []
    | "COMMANDS" :: rest -> entries rest
    | _ :: rest -> section rest
  and entries = function
    | line :: rest when line = "" || line.[0] = ' ' ->
        if String.length line > 7 && String.sub line 0 7 = "       " && line.[7] <> ' ' then
          List.hd (String.split_on_char ' ' (String.trim line)) :: entries rest
        else entries rest
    | _ -> []
  in
  section (String.split_on_char '\n' (help words))

(* Lines inside ``` fences, with backslash continuations joined. *)
let fenced_lines text =
  let rec go inside pending = function
    | [] -> []
    | line :: rest when String.starts_with ~prefix:"```" (String.trim line) ->
        go (not inside) "" rest
    | _ :: rest when not inside -> go inside pending rest
    | line :: rest ->
        let line = pending ^ line in
        if String.ends_with ~suffix:"\\" line then
          go inside (String.sub line 0 (String.length line - 1) ^ " ") rest
        else line :: go inside "" rest
  in
  go false "" (String.split_on_char '\n' text)

(* The arguments after [gcr] (or [.../gcr.exe --]), up to a shell
   comment, pipe, redirection or command separator. *)
let gcr_args line =
  let is_gcr word = word = "gcr" || Filename.basename word = "gcr.exe" in
  let rec find = function
    | [] -> None
    | word :: "--" :: rest when is_gcr word -> Some rest
    | word :: rest when is_gcr word -> Some rest
    | _ :: rest -> find rest
  in
  let rec upto = function
    | [] -> []
    | ("#" | "|" | ">" | ">>" | "&&" | ";" | "&") :: _ -> []
    | word :: rest -> word :: upto rest
  in
  Option.map upto (find (List.filter (( <> ) "") (String.split_on_char ' ' line)))

(* [--flag], [--flag=V] or [[--flag]] as the bare [--flag]. *)
let long_flag word =
  let word = String.trim (String.map (function '[' | ']' -> ' ' | c -> c) word) in
  if String.length word > 2 && String.starts_with ~prefix:"--" word then
    Some (List.hd (String.split_on_char '=' word))
  else None

(* [flag] as a whole option name: not a prefix of a longer one. *)
let lists_flag text flag =
  let n = String.length flag and len = String.length text in
  let rec go i =
    i + n <= len
    && ((String.sub text i n = flag
        &&
        match if i + n < len then Some text.[i + n] else None with
        | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') -> false
        | Some _ | None -> true)
       || go (i + 1))
  in
  go 0

let command_problems ~doc line =
  match gcr_args line with
  | None | Some [] -> []
  | Some (sub :: rest) ->
      if not (List.mem sub (commands [])) then
        [ Printf.sprintf "%s: %S names no subcommand %S" doc line sub ]
      else
        let words =
          match (commands [ sub ], rest) with
          | [], _ -> Ok [ sub ]
          | group, next :: _ when List.mem next group -> Ok [ sub; next ]
          | _, _ -> Error (Printf.sprintf "%s: %S names no %s subcommand" doc line sub)
        in
        match words with
        | Error problem -> [ problem ]
        | Ok words ->
            List.filter_map
              (fun word ->
                match long_flag word with
                | Some flag when not (lists_flag (help words) flag) ->
                    Some
                      (Printf.sprintf "%s: %S passes %s, which `gcr %s --help=plain` lacks" doc
                         line flag (String.concat " " words))
                | Some _ | None -> None)
              rest

let test_documented_commands () =
  let problems =
    List.concat_map
      (fun doc ->
        List.concat_map (command_problems ~doc)
          (fenced_lines (read_file (Filename.concat root doc))))
      [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]
  in
  Alcotest.(check (list string)) "documented commands match the CLI" [] problems

(* Every maximal GCR_[A-Z0-9_]+ name, wildcards such as GCR_* aside. *)
let env_names text =
  let len = String.length text in
  let rec name_end i =
    if i < len then
      match text.[i] with 'A' .. 'Z' | '0' .. '9' | '_' -> name_end (i + 1) | _ -> i
    else i
  in
  let rec go i acc =
    match String.index_from_opt text i 'G' with
    | None -> List.sort_uniq compare acc
    | Some j when j + 4 <= len && String.sub text j 4 = "GCR_" ->
        let k = name_end (j + 4) in
        let name = String.sub text j (k - j) in
        go k (if String.ends_with ~suffix:"_" name then acc else name :: acc)
    | Some j -> go (j + 1) acc
  in
  go 0 []

let rec ml_sources dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_sources path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let test_documented_env_vars () =
  let sources =
    String.concat "\n"
      (List.map read_file
         (ml_sources (Filename.concat root "lib") @ ml_sources (Filename.concat root "bin")))
  in
  let problems =
    List.concat_map
      (fun doc ->
        env_names (read_file (Filename.concat root doc))
        |> List.filter (fun name -> not (lists_flag sources (Printf.sprintf "%S" name)))
        |> List.map (Printf.sprintf "%s names %s, which lib/ and bin/ never read" doc))
      [ "README.md"; "DESIGN.md" ]
  in
  Alcotest.(check (list string)) "documented variables are read" [] problems

let suite =
  [
    Alcotest.test_case "documented gcr commands exist" `Quick test_documented_commands;
    Alcotest.test_case "documented GCR_* variables are read" `Quick test_documented_env_vars;
  ]
