(* Chrome trace-event JSON export of a recorded event stream, loadable in
   ui.perfetto.dev (or chrome://tracing).

   Layout:
   - one track per simulated thread (tid = engine tid), carrying GC phase
     slices (workers), stall slices and allocation-stall slices;
   - a "safepoints" pseudo-track carrying pause slices plus
     safepoint-request / degeneration / OOM instants;
   - per-mutator "requests" pseudo-tracks carrying request slices;
   - a "regions" counter fed by region transitions.
   Timestamps are microseconds of simulated time (Units.clock_hz).

   The writer emits exactly one JSON object per line inside "traceEvents"
   and closes any still-open slices at the end, so begin/end events are
   always balanced — [validate_file] (used by `gcr trace --check` and the
   CI trace-smoke step) relies on both properties. *)

module Units = Gcr_util.Units

let safepoint_tid = 900_000
let request_tid_base = 910_000

let ts_of_cycles c = Units.us_of_cycles c

let escape_string s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type writer = {
  out : Buffer.t;
  mutable first : bool;
  (* per-track stack of open (cat, name) slices, for closing at the end *)
  open_slices : (int, (string * string) list ref) Hashtbl.t;
  (* request index -> track tid, bridged from Request_start to _complete *)
  request_track : (int, int) Hashtbl.t;
  mutable last_time : int;
}

let emit_line w line =
  if w.first then w.first <- false else Buffer.add_string w.out ",\n";
  Buffer.add_string w.out line

let slice_stack w tid =
  match Hashtbl.find_opt w.open_slices tid with
  | Some r -> r
  | None ->
      let r = ref [] in
      Hashtbl.add w.open_slices tid r;
      r

let emit_meta w ~tid ~name =
  emit_line w
    (Printf.sprintf
       {|{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"%s"}}|}
       tid (escape_string name))

let emit_begin w ~time ~tid ~cat ~name ~args =
  let stack = slice_stack w tid in
  stack := (cat, name) :: !stack;
  emit_line w
    (Printf.sprintf {|{"ph":"B","pid":1,"tid":%d,"ts":%.3f,"cat":"%s","name":"%s"%s}|}
       tid (ts_of_cycles time) cat (escape_string name)
       (match args with "" -> "" | a -> Printf.sprintf {|,"args":{%s}|} a))

let emit_end w ~time ~tid =
  (match Hashtbl.find_opt w.open_slices tid with
  | Some ({ contents = _ :: rest } as r) -> r := rest
  | Some { contents = [] } | None -> ());
  emit_line w
    (Printf.sprintf {|{"ph":"E","pid":1,"tid":%d,"ts":%.3f}|} tid (ts_of_cycles time))

let emit_instant w ~time ~tid ~cat ~name =
  emit_line w
    (Printf.sprintf
       {|{"ph":"i","pid":1,"tid":%d,"ts":%.3f,"s":"t","cat":"%s","name":"%s"}|}
       tid (ts_of_cycles time) cat (escape_string name))

let emit_counter w ~time ~name ~key ~value =
  emit_line w
    (Printf.sprintf {|{"ph":"C","pid":1,"ts":%.3f,"name":"%s","args":{"%s":%d}}|}
       (ts_of_cycles time) name key value)

let write_events w obs trace =
  let module E = Event in
  let free_regions = ref 0 in
  let request_meta_done = Hashtbl.create 8 in
  emit_meta w ~tid:safepoint_tid ~name:"safepoints";
  Obs.Trace.iter trace (fun ~time ~code ~a ~b ~c ->
      w.last_time <- max w.last_time time;
      match Obs.decode_event obs ~code ~a ~b ~c with
      | E.Step_complete _ -> ()
      | E.Thread_spawn { tid; kind; name } ->
          ignore kind;
          emit_meta w ~tid ~name
      | E.Safepoint_request { reason } ->
          emit_instant w ~time ~tid:safepoint_tid ~cat:"safepoint" ~name:("request: " ^ reason)
      | E.Pause_begin { reason } ->
          emit_begin w ~time ~tid:safepoint_tid ~cat:"pause" ~name:reason ~args:""
      | E.Pause_end { reason = _; duration = _ } -> emit_end w ~time ~tid:safepoint_tid
      | E.Phase_begin { collector; phase; tid } ->
          emit_begin w ~time ~tid ~cat:"phase" ~name:(E.phase_name phase)
            ~args:(Printf.sprintf {|"collector":"%s"|} (escape_string collector))
      | E.Phase_end { collector = _; phase = _; tid } -> emit_end w ~time ~tid
      | E.Stall_begin { tid; wake = _ } ->
          emit_begin w ~time ~tid ~cat:"stall" ~name:"stall" ~args:""
      | E.Stall_end { tid } -> emit_end w ~time ~tid
      | E.Alloc_stall_begin { tid } ->
          emit_begin w ~time ~tid ~cat:"stall" ~name:"allocation stall" ~args:""
      | E.Alloc_stall_end { tid; waited = _ } -> emit_end w ~time ~tid
      | E.Pacing_stall { tid; cycles } ->
          emit_instant w ~time ~tid ~cat:"stall" ~name:(Printf.sprintf "pacing (%d cycles)" cycles)
      | E.Degeneration { reason } ->
          emit_instant w ~time ~tid:safepoint_tid ~cat:"degeneration" ~name:reason
      | E.Oom { reason } -> emit_instant w ~time ~tid:safepoint_tid ~cat:"oom" ~name:reason
      | E.Heap_init { regions; region_words = _ } ->
          free_regions := regions;
          emit_counter w ~time ~name:"regions" ~key:"free" ~value:!free_regions;
          emit_counter w ~time ~name:"heap-limit" ~key:"regions" ~value:regions
      | E.Limit_change { regions; old_regions; controller = _ } ->
          (* grow appends free regions, shrink removes only free ones, so
             the delta lands entirely on the free counter *)
          free_regions := !free_regions + (regions - old_regions);
          emit_counter w ~time ~name:"regions" ~key:"free" ~value:!free_regions;
          emit_counter w ~time ~name:"heap-limit" ~key:"regions" ~value:regions
      | E.Region_transition { index = _; from_space; to_space } ->
          if from_space = 0 then decr free_regions;
          if to_space = 0 then incr free_regions;
          emit_counter w ~time ~name:"regions" ~key:"free" ~value:!free_regions
      | E.Request_start { index; tid } ->
          let track = request_tid_base + tid in
          if not (Hashtbl.mem request_meta_done track) then begin
            Hashtbl.add request_meta_done track ();
            emit_meta w ~tid:track ~name:(Printf.sprintf "requests (tid %d)" tid)
          end;
          Hashtbl.replace w.request_track index track;
          emit_begin w ~time ~tid:track ~cat:"request"
            ~name:(Printf.sprintf "request %d" index) ~args:""
      | E.Request_complete { index; service; metered } ->
          let track =
            match Hashtbl.find_opt w.request_track index with
            | Some t -> t
            | None -> request_tid_base
          in
          Hashtbl.remove w.request_track index;
          ignore service;
          ignore metered;
          emit_end w ~time ~tid:track);
  (* Close slices still open at the end of the trace (e.g. the pause that
     was open when an aborted run stopped). *)
  Hashtbl.iter
    (fun tid stack ->
      List.iter (fun (_cat, _name) -> emit_end w ~time:w.last_time ~tid) !stack)
    w.open_slices

let write_buffer obs trace =
  let out = Buffer.create 65536 in
  Buffer.add_string out "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  let w =
    {
      out;
      first = true;
      open_slices = Hashtbl.create 16;
      request_track = Hashtbl.create 64;
      last_time = 0;
    }
  in
  write_events w obs trace;
  Buffer.add_string out "\n]}\n";
  out

let write_channel oc obs trace = Buffer.output_buffer oc (write_buffer obs trace)

let write_file path obs trace =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel oc obs trace)

(* ------------------------------------------------------------------ *)
(* Validation (CI trace-smoke and `gcr trace --check`).                *)
(* ------------------------------------------------------------------ *)

type summary = {
  events : int;
  pause_slices : int;
  phase_slices : int;
  begins : int;
  ends : int;
}

exception Invalid of string

(* Minimal JSON syntax checker — no external dependency, enough to promise
   "the file parses as JSON". *)
let check_json_syntax s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Invalid (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let parse_string () =
    expect '"';
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
            | 'u' ->
                advance ();
                for _ = 1 to 4 do
                  (match peek () with
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
                  | _ -> fail "bad \\u escape")
                done
            | _ -> fail "bad escape");
            loop ()
        | c when Char.code c < 0x20 -> fail "control char in string"
        | _ -> advance (); loop ()
    in
    loop ()
  in
  let parse_number () =
    if peek () = '-' then advance ();
    let digits () =
      let seen = ref false in
      while (match peek () with '0' .. '9' -> true | _ -> false) do
        seen := true;
        advance ()
      done;
      if not !seen then fail "expected digit"
    in
    digits ();
    if peek () = '.' then begin advance (); digits () end;
    (match peek () with
    | 'e' | 'E' ->
        advance ();
        (match peek () with '+' | '-' -> advance () | _ -> ());
        digits ()
    | _ -> ())
  in
  let literal l =
    let len = String.length l in
    if !pos + len <= n && String.sub s !pos len = l then pos := !pos + len
    else fail ("expected " ^ l)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then advance ()
        else begin
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ()
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then advance ()
        else begin
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements ()
            | ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ()
        end
    | '"' -> parse_string ()
    | 't' -> literal "true"
    | 'f' -> literal "false"
    | 'n' -> literal "null"
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "expected value"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing content"

(* The writer emits one event per line, so per-event fields can be read
   back with plain string search.  [field line key] returns the raw token
   following ["key":]. *)
let field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then begin
      let start = i + plen in
      let rec stop j in_string =
        if j >= n then j
        else
          match line.[j] with
          | '"' -> stop (j + 1) (not in_string)
          | (',' | '}') when not in_string -> j
          | _ -> stop (j + 1) in_string
      in
      Some (String.sub line start (stop start false - start))
    end
    else find (i + 1)
  in
  find 0

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2) else s

let validate_string contents =
  try
    check_json_syntax contents;
    let begins = Hashtbl.create 16 and ends = Hashtbl.create 16 in
    let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    let events = ref 0 and pause_slices = ref 0 and phase_slices = ref 0 in
    let nbegins = ref 0 and nends = ref 0 in
    String.split_on_char '\n' contents
    |> List.iter (fun line ->
           match field line "ph" with
           | None -> ()
           | Some ph ->
               incr events;
               let tid = match field line "tid" with Some t -> t | None -> "-" in
               let cat = Option.map unquote (field line "cat") in
               (match unquote ph with
               | "B" ->
                   incr nbegins;
                   bump begins tid;
                   (match cat with
                   | Some "pause" -> incr pause_slices
                   | Some "phase" -> incr phase_slices
                   | _ -> ())
               | "E" ->
                   incr nends;
                   bump ends tid
               | _ -> ()));
    if !nbegins <> !nends then
      Error (Printf.sprintf "unbalanced slices: %d begins vs %d ends" !nbegins !nends)
    else begin
      let unbalanced = ref None in
      Hashtbl.iter
        (fun tid b ->
          let e = Option.value ~default:0 (Hashtbl.find_opt ends tid) in
          if b <> e && !unbalanced = None then
            unbalanced := Some (Printf.sprintf "track %s: %d begins vs %d ends" tid b e))
        begins;
      match !unbalanced with
      | Some msg -> Error ("unbalanced slices: " ^ msg)
      | None ->
          Ok
            {
              events = !events;
              pause_slices = !pause_slices;
              phase_slices = !phase_slices;
              begins = !nbegins;
              ends = !nends;
            }
    end
  with Invalid msg -> Error ("invalid JSON: " ^ msg)

let validate_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> validate_string contents
