module Wire = Gcr_tape.Wire
module Spec = Gcr_workloads.Spec
module Tape_gen = Gcr_workloads.Tape_gen
module Run = Gcr_runtime.Run
module Profile = Gcr_runtime.Profile
module Measurement = Gcr_runtime.Measurement

type group = {
  spec : Spec.t;
  seed : int;
  tapes : bool;
  cost : float;
  cells : (int * Run.config) list;
}

type stats = {
  cells : int;
  cache_hits : int;
  per_worker : int array;
  reassigned_cells : int;
  parent_cells : int;
  worker_profile : Profile.snapshot;
}

type worker_row = {
  row_id : int;
  row_host : string;
  row_transport : string;
  row_cells : int;
  row_alive : bool;
}

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

(* Checksummed frames (see {!Transport}); one tag byte each.  The
   coordinator speaks the identical protocol to forked pipe workers and
   TCP socket workers; only sockets handshake.  No tape crosses the
   wire: every worker generates the replay images it needs.  A group
   frame carries the marshalled group alone, so a change to [group]'s
   type needs a new protocol version. *)

let protocol_version = 3

(* coordinator -> worker *)
let tag_welcome = 'W'
let tag_group = 'G'
let tag_quit = 'Q'

(* worker -> coordinator *)
let tag_hello = 'H'
let tag_batch = 'B'
let tag_heartbeat = 'h'

let heartbeat_interval_s = 1.0

(* A worker that has sent nothing for this long while holding a group is
   declared dead and its cells are requeued.  Heartbeats flow
   between cells, so the timeout must comfortably exceed one cell's
   runtime; [GCR_FABRIC_TIMEOUT_S] overrides (0 disables). *)
let default_timeout_s = 600.0

let timeout_of_env () =
  match Sys.getenv_opt "GCR_FABRIC_TIMEOUT_S" with
  | None | Some "" -> Ok default_timeout_s
  | Some s -> (
      match float_of_string_opt s with
      | Some t when Float.is_finite t && t >= 0.0 -> Ok t
      | Some _ | None ->
          Error
            (Printf.sprintf
               "GCR_FABRIC_TIMEOUT_S must be a finite number of seconds >= 0 (0 disables), \
                got %S"
               s))

(* Handshake payloads are Wire-encoded, not marshalled: they are parsed
   before the two sides have proven they run the same build, so the
   format must be robust to any byte sequence (the cursor raises
   [Wire.Corrupt], it never faults).  Both sides read the protocol
   version first and parse nothing else on a mismatch, because the rest
   of the layout may differ between versions (version 1's hello carried
   a has-store byte).  The welcome's layout is unchanged since version
   1, so an old worker can still read it and name the mismatch. *)

let hello_payload () =
  let b = Buffer.create 80 in
  Wire.put_varint b protocol_version;
  Wire.put_string b Cache_key.version;
  Wire.put_string b (Printf.sprintf "%s/%d" (Unix.gethostname ()) (Unix.getpid ()));
  Buffer.contents b

(* [Error proto] on a version mismatch; [Ok (cache-key version, host)]. *)
let read_hello payload =
  let c = Wire.cursor payload in
  let proto = Wire.get_varint c "hello protocol version" in
  if proto <> protocol_version then Error proto
  else
    let ckv = Wire.get_string c "hello cache-key version" in
    let host = Wire.get_string c "hello host" in
    Ok (ckv, host)

let welcome_payload ~worker_id ~plan_digest ~cache_results =
  let b = Buffer.create 120 in
  Wire.put_varint b protocol_version;
  Wire.put_string b Cache_key.version;
  Wire.put_string b plan_digest;
  Wire.put_varint b worker_id;
  Buffer.add_char b (if cache_results then '\001' else '\000');
  Buffer.contents b

(* [Error proto] on a version mismatch; [Ok (cache-key version, plan
   digest, worker id, cache-results flag)]. *)
let read_welcome payload =
  let c = Wire.cursor payload in
  let proto = Wire.get_varint c "welcome protocol version" in
  if proto <> protocol_version then Error proto
  else
    let ckv = Wire.get_string c "welcome cache-key version" in
    let plan_digest = Wire.get_string c "welcome plan digest" in
    let worker_id = Wire.get_varint c "welcome worker id" in
    let cache_results = Wire.get_byte c "welcome cache-results" <> 0 in
    Ok (ckv, plan_digest, worker_id, cache_results)

(* ------------------------------------------------------------------ *)
(* Worker process                                                      *)
(* ------------------------------------------------------------------ *)

let group_tape (g : group) =
  if not g.tapes then Run.Tape_off
  else begin
    let started = Unix.gettimeofday () in
    let image = Tape_gen.image ~spec:g.spec ~seed:g.seed in
    Profile.add_tape_s (Unix.gettimeofday () -. started);
    Run.Tape_replay image
  end

(* [before_cell] runs ahead of each cell: the worker loop heartbeats
   there. *)
let execute_group ?(before_cell = ignore) ~state ~cache ~on_result (g : group) =
  let tape = group_tape g in
  List.iter
    (fun (index, config) ->
      before_cell ();
      let config = { config with Run.tape } in
      let m, hit = Pool.execute_cached ?cache ~state config in
      on_result index hit m)
    g.cells

(* Results are shipped in batches: fewer, larger frames amortise the
   marshal and write cost per cell, and each batch carries the worker's
   profile self-time accumulated since the last one.  The cap bounds
   result latency on long groups (and the coordinator's reassignment
   loss after a crash). *)
let batch_cap = 32

(* The worker loop, shared by forked pipe workers and socket workers.
   Returns the exit code; forked workers wrap it in [_exit].  The
   coordinator sends a worker its next group only after the last result
   of the current one, so the loop blocks in [recv] between groups. *)
let worker_main ~cache ~ep ~verbose =
  let state = Run.new_state () in
  let scratch = Buffer.create 65536 in
  let batch : (int * bool * Measurement.t) list ref = ref [] in
  let batch_len = ref 0 in
  let last_prof = ref (Profile.snapshot ()) in
  let last_tx = ref (Unix.gettimeofday ()) in
  let send tag payload =
    Transport.send ~scratch ep ~tag payload;
    last_tx := Unix.gettimeofday ()
  in
  let flush () =
    if !batch_len > 0 then begin
      let now = Profile.snapshot () in
      let delta = Profile.diff now !last_prof in
      last_prof := now;
      send tag_batch (Marshal.to_string (List.rev !batch, delta) []);
      batch := [];
      batch_len := 0
    end
  in
  let on_result index hit m =
    batch := (index, hit, m) :: !batch;
    incr batch_len;
    if !batch_len >= batch_cap then flush ()
  in
  let heartbeat () =
    if Unix.gettimeofday () -. !last_tx >= heartbeat_interval_s then begin
      if !batch_len > 0 then flush () else send tag_heartbeat ""
    end
  in
  let rec loop () =
    match Transport.recv ep with
    | None -> 0
    | Some (tag, payload) when tag = tag_group ->
        let (g : group) = Marshal.from_string payload 0 in
        execute_group ~before_cell:heartbeat ~state ~cache ~on_result g;
        flush ();
        loop ()
    | Some (tag, _) when tag = tag_quit -> 0
    | Some _ -> 3 (* unknown tag *)
  in
  try loop () with
  | Transport.Corrupt msg ->
      if verbose then Printf.eprintf "gcr worker: corrupt stream from coordinator: %s\n%!" msg;
      3
  | Unix.Unix_error _ -> 1
  | exn ->
      if verbose then
        Printf.eprintf "gcr worker: uncaught exception: %s\n%!" (Printexc.to_string exn);
      1

(* --- Remote worker entry point (gcr worker --connect). --- *)

let resolve_addr host port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for host " ^ host)
      | { Unix.h_addr_list; _ } -> Unix.ADDR_INET (h_addr_list.(0), port)
      | exception Not_found -> failwith ("unknown host " ^ host))

let worker_connect ~host ~port ?cache ?(retry_for = 30.0) () =
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  match resolve_addr host port with
  | exception Failure msg -> Error msg
  | addr -> (
      let deadline = Unix.gettimeofday () +. retry_for in
      (* The coordinator may not be listening yet (workers are typically
         started first): retry connection refusals until the deadline. *)
      let rec connect () =
        let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
        match Unix.connect fd addr with
        | () ->
            (* each group is a request/response exchange (the next group
               is sent only after the last result of this one): Nagle +
               delayed ACK would add ~40ms stalls to every exchange *)
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            Some fd
        | exception
            Unix.Unix_error
              ( ( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENETUNREACH
                | Unix.EHOSTUNREACH | Unix.ETIMEDOUT ),
                _,
                _ ) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if Unix.gettimeofday () >= deadline then None
            else begin
              Unix.sleepf 0.2;
              connect ()
            end
        | exception Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            failwith (Unix.error_message e)
      in
      match connect () with
      | exception Failure msg ->
          Error (Printf.sprintf "cannot connect to %s:%d: %s" host port msg)
      | None ->
          Error
            (Printf.sprintf "could not connect to %s:%d within %.0fs" host port retry_for)
      | Some fd -> (
          let ep = Transport.of_socket fd in
          let fail msg =
            Transport.close ep;
            Error msg
          in
          match
            Transport.send ep ~tag:tag_hello (hello_payload ());
            Transport.recv ep
          with
          | exception Transport.Corrupt msg | exception Wire.Corrupt msg ->
              fail ("corrupt handshake: " ^ msg)
          | exception Unix.Unix_error (e, _, _) ->
              fail ("handshake failed: " ^ Unix.error_message e)
          | None -> fail "coordinator closed the connection during the handshake"
          | Some (tag, _) when tag <> tag_welcome ->
              fail (Printf.sprintf "expected welcome frame, got tag %C" tag)
          | Some (_, payload) -> (
              match read_welcome payload with
              | exception Wire.Corrupt msg -> fail ("corrupt welcome: " ^ msg)
              | Error proto ->
                  fail
                    (Printf.sprintf
                       "protocol version mismatch: coordinator speaks v%d, this build v%d"
                       proto protocol_version)
              | Ok (ckv, _, _, _) when not (String.equal ckv Cache_key.version) ->
                  fail
                    (Printf.sprintf
                       "cache-key version mismatch: coordinator %s, this build %s" ckv
                       Cache_key.version)
              | Ok (_, plan_digest, worker_id, cache_results) ->
                  Printf.eprintf "gcr worker %d: connected to %s:%d (plan %s%s)\n%!"
                    worker_id host port
                    (if plan_digest = "" then "unnamed" else plan_digest)
                    (match cache with
                    | Some c -> "; result cache " ^ Result_cache.dir c
                    | None -> "");
                  (* results are cached only when the coordinator caches too *)
                  let cache = if cache_results then cache else None in
                  let code = worker_main ~cache ~ep ~verbose:true in
                  Transport.close ep;
                  Ok code)))

(* ------------------------------------------------------------------ *)
(* Coordinator core                                                    *)
(* ------------------------------------------------------------------ *)

(* Every dealing decision of a wave, and no I/O: the core sees worker
   ids, cell indices, group costs and opaque results.  The shell below
   feeds it what arrived and performs what it answers, so a coordinator
   bug is a core bug, and the test suite drives the core under seeded
   fault schedules instead of forking faulty workers. *)
module Coordinator = struct
  type loss =
    | Hangup
    | Corrupt_frame of string
    | Bad_payload of string
    | Unknown_tag of char
    | Send_failed
    | Silent of float

  type 'r input = Batch of int * (int * 'r) list | Lost of int * loss

  type 'r action =
    | Take of { worker : int; cell : int; result : 'r }
    | Drop of { worker : int; log : string list }

  type deal =
    | Send of { worker : int; group : int; cells : int list }
    | Wait
    | Backstop of (int * int list) list

  type t = {
    cost : float array;
    pending : int list array;  (** each group's unreduced cells *)
    alive : bool array;
    held : int array;  (** each worker's group, or -1 *)
    mutable ready : int list;  (** groups to deal, costliest first *)
    mutable requeued : int;
  }

  (* Strict priority of group a over group b: largest cost first (LPT),
     so the big groups cannot land last on an otherwise-drained fleet. *)
  let before t a b = t.cost.(a) > t.cost.(b) || (t.cost.(a) = t.cost.(b) && a < b)

  let insert_ready t gid =
    let rec ins = function
      | [] -> [ gid ]
      | x :: rest -> if before t x gid then x :: ins rest else gid :: x :: rest
    in
    t.ready <- ins t.ready

  let create ~alive groups =
    let t =
      {
        cost = Array.of_list (List.map fst groups);
        pending = Array.of_list (List.map snd groups);
        alive = Array.copy alive;
        held = Array.make (Array.length alive) (-1);
        ready = [];
        requeued = 0;
      }
    in
    Array.iteri (fun gid cells -> if cells <> [] then insert_ready t gid) t.pending;
    t

  let requeued t = t.requeued

  let drop t w why =
    let gid = t.held.(w) in
    let lost = if gid < 0 then 0 else List.length t.pending.(gid) in
    t.alive.(w) <- false;
    t.held.(w) <- -1;
    if gid >= 0 then insert_ready t gid;
    t.requeued <- t.requeued + lost;
    let died = Printf.sprintf "worker %d died; requeueing %d cell(s)" w lost in
    Drop { worker = w; log = why @ [ died ] }

  (* A worker holds one group at a time, so every result it may send is
     an unreduced cell of that group.  Any other index (out of range, a
     cell it was not dealt, a repeat) drops the worker like a bad frame,
     and the rest of its batch with it. *)
  let step t = function
    | Batch (w, _) | Lost (w, _) when not t.alive.(w) -> []
    | Lost (w, Silent _) when t.held.(w) < 0 -> [] (* an idle worker has nothing to say *)
    | Lost (w, loss) ->
        let line fmt = Printf.sprintf ("worker %d: " ^^ fmt) w in
        [
          drop t w
            (match loss with
            | Hangup | Send_failed -> []
            | Corrupt_frame msg -> [ line "corrupt stream (%s)" msg ]
            | Bad_payload msg -> [ line "bad frame payload (%s)" msg ]
            | Unknown_tag tag -> [ line "unexpected frame tag %C" tag ]
            | Silent s -> [ line "no frames for %.0fs, declaring dead" s ]);
        ]
    | Batch (w, entries) ->
        let rec take acc = function
          | [] -> List.rev acc
          | (cell, result) :: rest ->
              let gid = t.held.(w) in
              if gid >= 0 && List.mem cell t.pending.(gid) then begin
                t.pending.(gid) <- List.filter (( <> ) cell) t.pending.(gid);
                if t.pending.(gid) = [] then t.held.(w) <- -1;
                take (Take { worker = w; cell; result } :: acc) rest
              end
              else
                let line = Printf.sprintf "worker %d: result for cell %d it does not hold" w cell in
                List.rev (drop t w [ line ] :: acc)
        in
        take [] entries

  (* Greedy LPT list scheduling, one group per worker: the idle live
     worker with the lowest id takes the costliest ready group.  Waiting
     is safe only while a live worker holds a group, since only a holder
     can produce the input that moves the wave on. *)
  let deal t =
    let n = Array.length t.alive in
    let rec idle w = if w = n || (t.alive.(w) && t.held.(w) < 0) then w else idle (w + 1) in
    match (t.ready, idle 0) with
    | gid :: rest, w when w < n ->
        t.ready <- rest;
        t.held.(w) <- gid;
        Send { worker = w; group = gid; cells = t.pending.(gid) }
    | _ ->
        if Array.exists (fun gid -> gid >= 0) t.held then Wait
        else Backstop (List.map (fun gid -> (gid, t.pending.(gid))) t.ready)
end

(* ------------------------------------------------------------------ *)
(* Coordinator shell                                                   *)
(* ------------------------------------------------------------------ *)

type wrec = {
  w_id : int;
  w_host : string;
  w_transport : string;
  ep : Transport.t;
  pid : int option;  (** forked workers only, for [waitpid] *)
  mutable alive : bool;
  mutable last_rx : float;
  mutable cells_total : int;  (** session-cumulative, probe waves included *)
}

type session = {
  cache : Result_cache.t option;
  log : string -> unit;
  timeout_s : float;
  ws : wrec array;
  scratch : Buffer.t;
  old_sigpipe : Sys.signal_behavior option;
  mutable deaths : int;
  mutable closed : bool;
}

(* --- Spawning: forked pipe workers. --- *)

let spawn_forked ~cache ~id ~close_in_child =
  let req_read, req_write = Unix.pipe ~cloexec:false () in
  let resp_read, resp_write = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_write;
      Unix.close resp_read;
      (* the parent-side ends of earlier siblings, inherited across the
         fork: close them so sibling EOFs are not kept artificially open *)
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) close_in_child;
      let ep = Transport.of_fds ~recv:req_read ~send:resp_write in
      Unix._exit (try worker_main ~cache ~ep ~verbose:false with _ -> 1)
  | pid ->
      Unix.close req_read;
      Unix.close resp_write;
      {
        w_id = id;
        w_host = "local";
        w_transport = "pipe";
        ep = Transport.of_fds ~recv:resp_read ~send:req_write;
        pid = Some pid;
        alive = true;
        last_rx = Unix.gettimeofday ();
        cells_total = 0;
      }

(* --- Socket accept + handshake. --- *)

let accept_workers ~log ~host ~port ~expected ~connect_timeout ~plan_digest
    ~cache_results ~on_listen =
  let addr = resolve_addr host port in
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock addr;
  Unix.listen sock (max 1 expected);
  let actual_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  Option.iter (fun f -> f actual_port) on_listen;
  log
    (Printf.sprintf "listening on %s:%d; waiting up to %.0fs for %d worker(s)" host
       actual_port connect_timeout expected);
  let deadline = Unix.gettimeofday () +. connect_timeout in
  let ws = ref [] in
  let count = ref 0 in
  let handshake fd =
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let ep = Transport.of_socket fd in
    let reject msg =
      log ("rejected worker connection: " ^ msg);
      Transport.close ep
    in
    match Transport.recv ep with
    | exception Transport.Corrupt msg -> reject ("corrupt hello: " ^ msg)
    | exception Unix.Unix_error (e, _, _) -> reject (Unix.error_message e)
    | None -> reject "closed before hello"
    | Some (tag, _) when tag <> tag_hello ->
        reject (Printf.sprintf "expected hello, got tag %C" tag)
    | Some (_, payload) -> (
        match read_hello payload with
        | exception Wire.Corrupt msg -> reject ("corrupt hello: " ^ msg)
        | hello -> (
            let id = !count in
            (* answer with our versions even on mismatch, so the worker can
               print the precise incompatibility before exiting 3 *)
            match
              Transport.send ep ~tag:tag_welcome
                (welcome_payload ~worker_id:id ~plan_digest ~cache_results)
            with
            | exception Unix.Unix_error (e, _, _) -> reject (Unix.error_message e)
            | () -> (
                match hello with
                | Error proto ->
                    reject
                      (Printf.sprintf "protocol version mismatch (worker v%d, ours v%d)"
                         proto protocol_version)
                | Ok (ckv, _) when not (String.equal ckv Cache_key.version) ->
                    reject
                      (Printf.sprintf "cache-key version mismatch (worker %s, ours %s)" ckv
                         Cache_key.version)
                | Ok (_, peer_host) ->
                    incr count;
                    log (Printf.sprintf "worker %d connected from %s" id peer_host);
                    ws :=
                      {
                        w_id = id;
                        w_host = peer_host;
                        w_transport = "socket";
                        ep;
                        pid = None;
                        alive = true;
                        last_rx = Unix.gettimeofday ();
                        cells_total = 0;
                      }
                      :: !ws)))
  in
  let rec accept_loop () =
    if !count < expected then begin
      let left = deadline -. Unix.gettimeofday () in
      if left > 0.0 then begin
        match Unix.select [ sock ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | [], _, _ -> ()
        | _ :: _, _, _ ->
            (match Unix.accept sock with
            | fd, _ -> handshake fd
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
            accept_loop ()
      end
    end
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if !count < expected then
    log
      (Printf.sprintf
         "only %d of %d worker(s) connected before the deadline; proceeding%s" !count
         expected
         (if !count = 0 then " (coordinator executes everything inline)" else ""));
  List.rev !ws

(* --- Session lifecycle. --- *)

let start ~workers ?cache ?(log = fun (_ : string) -> ()) ?listen ?(connect_timeout = 30.0)
    ?on_listen ?(plan_digest = "") () =
  if workers < 1 then invalid_arg "Fabric.start: workers must be >= 1";
  let timeout_s =
    match timeout_of_env () with
    | Ok t -> t
    | Error reason -> invalid_arg ("Fabric.start: " ^ reason)
  in
  let old_sigpipe =
    (* a worker that died mid-read must surface as EPIPE, not kill us *)
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  let ws =
    match listen with
    | Some (host, port) ->
        accept_workers ~log ~host ~port ~expected:workers ~connect_timeout ~plan_digest
          ~cache_results:(cache <> None) ~on_listen
    | None ->
        (* spawn in id order; each child closes the parent-side pipe ends
           of the workers spawned before it *)
        let rec spawn id acc close_fds =
          if id >= workers then List.rev acc
          else begin
            let w = spawn_forked ~cache ~id ~close_in_child:close_fds in
            let close_fds = Transport.recv_fd w.ep :: Transport.send_fd w.ep :: close_fds in
            spawn (id + 1) (w :: acc) close_fds
          end
        in
        spawn 0 [] []
  in
  {
    cache;
    log;
    timeout_s;
    ws = Array.of_list ws;
    scratch = Buffer.create 65536;
    old_sigpipe;
    deaths = 0;
    closed = false;
  }

let close_worker w =
  Transport.close w.ep;
  w.alive <- false

let shutdown session =
  if not session.closed then begin
    session.closed <- true;
    Array.iter
      (fun w ->
        if w.alive then begin
          (try Transport.send ~scratch:session.scratch w.ep ~tag:tag_quit "" with _ -> ());
          close_worker w
        end)
      session.ws;
    Array.iter
      (fun w ->
        match w.pid with
        | Some pid -> ( try ignore (Unix.waitpid [] pid) with _ -> ())
        | None -> ())
      session.ws;
    match session.old_sigpipe with
    | Some behaviour -> ( try Sys.set_signal Sys.sigpipe behaviour with _ -> ())
    | None -> ()
  end

let worker_rows session =
  Array.to_list
    (Array.map
       (fun w ->
         {
           row_id = w.w_id;
           row_host = w.w_host;
           row_transport = w.w_transport;
           row_cells = w.cells_total;
           row_alive = w.alive;
         })
       session.ws)

let worker_deaths session = session.deaths

(* --- Dispatch: execute one wave of groups through the session. --- *)

let validate_groups ~n_cells groups =
  let seen = Array.make n_cells false in
  List.iter
    (fun (g : group) ->
      List.iter
        (fun (index, (config : Run.config)) ->
          if index < 0 then invalid_arg "Fabric.dispatch: negative cell index";
          if index >= n_cells then invalid_arg "Fabric.dispatch: cell index out of range";
          if seen.(index) then invalid_arg "Fabric.dispatch: duplicate cell index";
          seen.(index) <- true;
          if config.Run.make_collector <> None then
            invalid_arg "Fabric.dispatch: custom collectors cannot cross processes";
          match config.Run.tape with
          | Run.Tape_off -> ()
          | Run.Tape_replay _ ->
              invalid_arg
                "Fabric.dispatch: cell configs must carry Tape_off (workers attach the \
                 group tape themselves)")
        g.cells)
    groups

let dispatch session ~n_cells groups =
  if session.closed then invalid_arg "Fabric.dispatch: session is shut down";
  validate_groups ~n_cells groups;
  let core =
    Coordinator.create
      ~alive:(Array.map (fun w -> w.alive) session.ws)
      (List.map (fun (g : group) -> (g.cost, List.map fst g.cells)) groups)
  in
  let groups = Array.of_list groups in
  let results : Measurement.t option array = Array.make n_cells None in
  let per_worker = Array.make (Array.length session.ws) 0 in
  let hits = ref 0 in
  let parent_cells = ref 0 in
  let worker_profile = ref Profile.zero in
  let subgroup gid cells =
    let g = groups.(gid) in
    { g with cells = List.filter (fun (index, _) -> List.mem index cells) g.cells }
  in
  let perform = function
    | Coordinator.Take { worker; cell; result = hit, m } ->
        let w = session.ws.(worker) in
        results.(cell) <- Some m;
        per_worker.(worker) <- per_worker.(worker) + 1;
        w.cells_total <- w.cells_total + 1;
        if hit then incr hits
    | Coordinator.Drop { worker; log } ->
        List.iter session.log log;
        close_worker session.ws.(worker);
        session.deaths <- session.deaths + 1
  in
  let feed input = List.iter perform (Coordinator.step core input) in
  let send worker gid cells =
    let g = subgroup gid cells in
    session.log
      (Printf.sprintf "worker %d <- %s seed=%d (%d cells, cost %.0f)" worker g.spec.Spec.name
         g.seed (List.length g.cells) g.cost);
    match
      Transport.send ~scratch:session.scratch session.ws.(worker).ep ~tag:tag_group
        (Marshal.to_string g [])
    with
    | () -> ()
    | exception Unix.Unix_error _ -> feed (Lost (worker, Send_failed))
  in
  let rec drain w =
    if w.alive then
      match Transport.next_frame w.ep with
      | None -> ()
      | Some (tag, payload) when tag = tag_batch -> (
          match
            (Marshal.from_string payload 0
              : (int * bool * Measurement.t) list * Profile.snapshot)
          with
          | exception Failure msg ->
              (* a frame that passed the checksum but failed unmarshalling *)
              feed (Lost (w.w_id, Bad_payload msg))
          | batch, delta ->
              let acc = !worker_profile in
              worker_profile :=
                {
                  Profile.setup_us = acc.Profile.setup_us + delta.Profile.setup_us;
                  tape_us = acc.Profile.tape_us + delta.Profile.tape_us;
                  simulate_us = acc.Profile.simulate_us + delta.Profile.simulate_us;
                };
              feed (Batch (w.w_id, List.map (fun (index, hit, m) -> (index, (hit, m))) batch));
              drain w)
      | Some (tag, _) when tag = tag_heartbeat -> drain w
      | Some (tag, _) -> feed (Lost (w.w_id, Unknown_tag tag))
      | exception Transport.Corrupt msg -> feed (Lost (w.w_id, Corrupt_frame msg))
  in
  let wait () =
    let live = List.filter (fun w -> w.alive) (Array.to_list session.ws) in
    match Unix.select (List.map (fun w -> Transport.recv_fd w.ep) live) [] [] 5.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun w ->
            if w.alive && List.mem (Transport.recv_fd w.ep) readable then begin
              w.last_rx <- Unix.gettimeofday ();
              match Transport.read_step w.ep with
              | `Ready -> drain w
              | `Eof | (exception Unix.Unix_error _) -> feed (Lost (w.w_id, Hangup))
            end)
          live;
        if session.timeout_s > 0.0 then begin
          let now = Unix.gettimeofday () in
          Array.iter
            (fun w ->
              if now -. w.last_rx > session.timeout_s then
                feed (Lost (w.w_id, Silent (now -. w.last_rx))))
            session.ws
        end
  in
  let rec run () =
    match Coordinator.deal core with
    | Send { worker; group; cells } ->
        send worker group cells;
        run ()
    | Wait ->
        wait ();
        run ()
    | Backstop rest -> rest
  in
  let rest = run () in
  (* Backstop: every worker is gone (or none ever connected) but cells
     remain — execute them in this process so the campaign always
     completes.  The coordinator's own setup/tape/simulate time lands in
     this process's {!Profile} counters, not in [worker_profile]. *)
  let backstop_state = Run.new_state () in
  List.iter
    (fun (gid, cells) ->
      execute_group ~state:backstop_state ~cache:session.cache
        ~on_result:(fun index hit m ->
          results.(index) <- Some m;
          incr parent_cells;
          if hit then incr hits)
        (subgroup gid cells))
    rest;
  let out =
    Array.map
      (function
        | Some m -> m
        | None -> invalid_arg "Fabric.dispatch: unfilled cell (planner/index mismatch)")
      results
  in
  ( out,
    {
      cells = n_cells;
      cache_hits = !hits;
      per_worker;
      reassigned_cells = Coordinator.requeued core;
      parent_cells = !parent_cells;
      worker_profile = !worker_profile;
    } )
