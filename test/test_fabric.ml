(* The differential suite behind the campaign fabric's central promise:
   a multi-process campaign is bit-identical to the in-process one — at
   any worker count, through worker crashes, through result-cache
   corruption (which must read as a miss and re-execute, never as a
   wrong result), and past peers that speak another protocol version. *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Harness = Gcr_core.Harness
module Planner = Gcr_core.Planner
module Metrics = Gcr_core.Metrics
module Minheap = Gcr_core.Minheap
module Fabric = Gcr_sched.Fabric
module Result_cache = Gcr_sched.Result_cache
module Transport = Gcr_sched.Transport
module Cache_key = Gcr_sched.Cache_key
module Wire = Gcr_tape.Wire

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gcr-fabric-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (* stale leftovers from a killed run would fake warm hits *)
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

let campaign_config ~workers =
  {
    (Harness.default_config ()) with
    Harness.invocations = 2;
    scale = 0.1;
    heap_factors = [ 1.9; 3.0 ];
    log_progress = false;
    workers;
    cache_dir = None;
  }

let benchmarks = [ Suite.find_exn "h2" ]

let run_with ~workers () =
  Harness.run_campaign (campaign_config ~workers) ~benchmarks ~gcs:Registry.production

let serial = lazy (run_with ~workers:None ())

let fabric1 = lazy (run_with ~workers:(Some 1) ())

let fabric4 = lazy (run_with ~workers:(Some 4) ())

let all_gcs = Registry.Epsilon :: Registry.production

let factors = [ 1.9; 3.0 ]

(* Measurements are plain data, so structural equality is bit-equality
   of everything the reports are derived from. *)
let check_campaigns_identical ~what reference candidate =
  check Alcotest.bool
    (Printf.sprintf "%s: all measurements bit-identical" what)
    true
    (Harness.all_measurements reference = Harness.all_measurements candidate);
  check Alcotest.int
    (Printf.sprintf "%s: minheap words equal" what)
    (Harness.minheap_words reference ~bench:"h2")
    (Harness.minheap_words candidate ~bench:"h2");
  List.iter
    (fun gc ->
      List.iter
        (fun factor ->
          check Alcotest.bool
            (Printf.sprintf "%s: runs identical %s@%g" what (Registry.name gc) factor)
            true
            (Harness.runs reference ~bench:"h2" ~gc ~factor
            = Harness.runs candidate ~bench:"h2" ~gc ~factor))
        factors)
    all_gcs;
  List.iter
    (fun metric ->
      List.iter
        (fun gc ->
          List.iter
            (fun factor ->
              check Alcotest.bool
                (Printf.sprintf "%s: lbo equal %s@%g" what (Registry.name gc) factor)
                true
                (Harness.lbo_value reference metric ~bench:"h2" ~gc ~factor
                = Harness.lbo_value candidate metric ~bench:"h2" ~gc ~factor))
            factors)
        Registry.production)
    [ Metrics.Wall_time; Metrics.Cpu_cycles ]

let test_fabric_one_worker_identical () =
  check_campaigns_identical ~what:"serial vs workers=1" (Lazy.force serial)
    (Lazy.force fabric1)

let test_fabric_four_workers_identical () =
  check_campaigns_identical ~what:"serial vs workers=4" (Lazy.force serial)
    (Lazy.force fabric4);
  check_campaigns_identical ~what:"workers=1 vs workers=4" (Lazy.force fabric1)
    (Lazy.force fabric4)

let test_summary_accounting () =
  let s = Harness.summary (Lazy.force fabric4) in
  (* 2 invocations × (Epsilon + 5 production collectors × 2 factors) *)
  check Alcotest.int "cell count" 22 s.Harness.cells;
  check Alcotest.int "no cache in play" 0 s.Harness.cache_hits;
  check Alcotest.int "worker processes" 4 s.Harness.worker_processes;
  check Alcotest.int "every cell accounted to a worker or the parent"
    s.Harness.cells
    (Array.fold_left ( + ) 0 s.Harness.per_worker + s.Harness.parent_cells);
  check Alcotest.bool "campaign took measurable time" true (s.Harness.elapsed_s > 0.0);
  let p = Harness.summary (Lazy.force serial) in
  check Alcotest.int "in-process run reports no worker processes" 0
    p.Harness.worker_processes

(* The warm workers' reuse≡fresh contract, end to end: every cell of the
   fabric campaign equals [Run.execute] of its planned config on fresh
   state (no tape, no pooled engine or heap). *)
let test_fabric_cells_equal_fresh_runs () =
  let campaign = Lazy.force fabric4 in
  let config = Harness.config_of campaign in
  let plan =
    Planner.plan ~controllers:config.Harness.controllers
      ~invocations:config.Harness.invocations ~base_seed:config.Harness.base_seed
      ~machine:config.Harness.machine ~cost:config.Harness.cost
      ~region_words:config.Harness.region_words ~heap_factors:config.Harness.heap_factors
      ~minheap:(fun ~bench -> Harness.minheap_words campaign ~bench)
      ~specs:(Harness.benchmarks campaign) ~gcs:(Harness.gcs campaign) ()
  in
  List.iter
    (fun (c : Planner.cell) ->
      let recorded =
        List.nth_opt
          (Harness.runs ~controller:c.Planner.controller campaign ~bench:c.Planner.bench
             ~gc:c.Planner.gc ~factor:c.Planner.factor)
          c.Planner.invocation
      in
      check Alcotest.bool
        (Printf.sprintf "cell %d (%s %s@%g #%d) equals a fresh run" c.Planner.index
           c.Planner.bench (Registry.name c.Planner.gc) c.Planner.factor
           c.Planner.invocation)
        true
        (recorded = Some (Run.execute c.Planner.config)))
    (Planner.cells plan)

(* A worker that dies mid-group must have its unfinished cells reassigned
   — and the recorded campaign must not show a trace of the crash. *)
let test_worker_crash_reassigns () =
  Unix.putenv "GCR_FABRIC_CRASH_AFTER" "2";
  let crashed =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "GCR_FABRIC_CRASH_AFTER" "")
      (fun () -> run_with ~workers:(Some 2) ())
  in
  let s = Harness.summary crashed in
  check Alcotest.bool "cells were reassigned" true (s.Harness.reassigned_cells > 0);
  check Alcotest.int "every cell still accounted" s.Harness.cells
    (Array.fold_left ( + ) 0 s.Harness.per_worker + s.Harness.parent_cells);
  check_campaigns_identical ~what:"serial vs crashed fabric" (Lazy.force serial) crashed

(* A worker holds one group at a time, so a crash requeues only the
   unfinished cells of the group it was running.  One worker and the
   suite's grid of two 11-cell groups: the worker dies after 2 results
   of its first group, so 9 cells are requeued and the backstop runs
   those plus the second group, which was never sent.  The serial run
   comes first so the min-heap memo is warm and no probe wave meets the
   crash hook. *)
let test_crash_requeues_only_current_group () =
  let reference = Lazy.force serial in
  Unix.putenv "GCR_FABRIC_CRASH_AFTER" "2";
  let crashed =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "GCR_FABRIC_CRASH_AFTER" "")
      (fun () -> run_with ~workers:(Some 1) ())
  in
  let s = Harness.summary crashed in
  check Alcotest.int "no probe wave ran" 0 s.Harness.probe_cells;
  check Alcotest.int "only the running group's unfinished cells were requeued" 9
    s.Harness.reassigned_cells;
  check Alcotest.int "the backstop ran the rest" 20 s.Harness.parent_cells;
  check_campaigns_identical ~what:"serial vs one crashed worker" reference crashed

(* When the last worker has died, a send to it fails (EPIPE) while its
   group is still to run.  The coordinator must go straight to the
   backstop rather than wait in a [select] on no descriptors. *)
let test_dead_fleet_goes_to_backstop () =
  let spec = Spec.scale (Suite.find_exn "jme") 0.05 in
  let config = Run.default_config ~spec ~gc:Registry.Serial ~heap_words:160_000 ~seed:7 in
  let wave session =
    Fabric.dispatch session ~n_cells:1
      [ { Fabric.spec; seed = 7; tapes = true; cost = 1.0; cells = [ (0, config) ] } ]
  in
  let var = "GCR_FABRIC_CRASH_AFTER" in
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var "1";
  let session =
    Fun.protect ~finally:(fun () -> Unix.putenv var saved) (fun () -> Fabric.start ~workers:1 ())
  in
  Fun.protect
    ~finally:(fun () -> Fabric.shutdown session)
    (fun () ->
      let _, first = wave session in
      check Alcotest.int "the worker ran the first wave" 0 first.Fabric.parent_cells;
      (* the worker exits right after its first result *)
      Unix.sleepf 0.5;
      let started = Unix.gettimeofday () in
      let measurements, stats = wave session in
      let elapsed = Unix.gettimeofday () -. started in
      check Alcotest.bool (Printf.sprintf "second wave took %.1fs, under 2s" elapsed) true
        (elapsed < 2.0);
      check Alcotest.int "the backstop ran the cell" 1 stats.Fabric.parent_cells;
      check Alcotest.bool "the cell equals a fresh run" true
        (measurements.(0) = Run.execute config))

(* --- Socket transport: the same fabric over TCP. ---

   Workers are forked from [on_listen] — after the coordinator has bound
   its (ephemeral) port, before it starts accepting — so the connection
   is race-free.  Each child becomes a real [gcr worker --connect]
   process via [Fabric.worker_connect]. *)

let fork_socket_worker ~port ~cache_dir =
  match Unix.fork () with
  | 0 ->
      let cache = Option.map (fun dir -> Result_cache.create ~dir) cache_dir in
      Unix._exit
        (match
           Fabric.worker_connect ~host:"127.0.0.1" ~port ?cache ~retry_for:20.0 ()
         with
        | Ok code -> code
        | Error msg ->
            Printf.eprintf "socket worker failed: %s\n%!" msg;
            3)
  | pid -> pid

(* [worker_caches]: one entry per worker, the worker's own result cache
   directory ([gcr worker --store]); [None] forks a worker without one. *)
let run_socket ?cache_dir ~worker_caches () =
  let pids = ref [] in
  let config =
    {
      (campaign_config ~workers:(Some (List.length worker_caches))) with
      Harness.cache_dir;
      listen = Some ("127.0.0.1", 0);
      connect_timeout = 30.0;
      on_listen =
        Some
          (fun port ->
            List.iter
              (fun cache_dir -> pids := fork_socket_worker ~port ~cache_dir :: !pids)
              worker_caches);
    }
  in
  let campaign = Harness.run_campaign config ~benchmarks ~gcs:Registry.production in
  let statuses = List.map (fun pid -> snd (Unix.waitpid [] pid)) !pids in
  (campaign, statuses)

(* Two workers without a result cache, each generating the tapes it
   replays.  The minheap memo is cleared first so the probe searches
   ride the socket as first-class plan cells. *)
let test_socket_fabric_identical () =
  let reference = Lazy.force serial in
  Minheap.clear_memo ();
  let campaign, statuses = run_socket ~worker_caches:[ None; None ] () in
  check_campaigns_identical ~what:"serial vs socket fabric" reference campaign;
  let s = Harness.summary campaign in
  check Alcotest.bool "probes rode the fabric" true (s.Harness.probe_cells > 0);
  check Alcotest.int "two socket workers" 2 (List.length s.Harness.worker_rows);
  List.iter
    (fun (r : Fabric.worker_row) ->
      check Alcotest.string
        (Printf.sprintf "worker %d transport" r.Fabric.row_id)
        "socket" r.Fabric.row_transport)
    s.Harness.worker_rows;
  List.iter
    (fun st ->
      check Alcotest.bool "socket worker exited cleanly" true (st = Unix.WEXITED 0))
    statuses

(* One worker sharing the coordinator's result cache, one with none:
   warm the cache first (a pipe-fabric campaign on a narrower factor
   grid, whose cells are a subset of this grid's), then check the mixed
   fleet reproduces the serial report and that the worker with the cache
   replayed the warmed entries.  The plan has two groups and the dealer
   gives each worker one, so the cached worker always holds warmed
   cells. *)
let test_socket_mixed_store_identical () =
  let dir = fresh_dir () in
  let warm_config =
    { (campaign_config ~workers:(Some 1)) with
      Harness.cache_dir = Some dir;
      heap_factors = [ 1.9 ];
    }
  in
  let (_ : Harness.campaign) =
    Harness.run_campaign warm_config ~benchmarks ~gcs:Registry.production
  in
  let campaign, statuses =
    run_socket ~cache_dir:dir ~worker_caches:[ Some dir; None ] ()
  in
  check_campaigns_identical ~what:"serial vs mixed-store socket fabric"
    (Lazy.force serial) campaign;
  let s = Harness.summary campaign in
  check Alcotest.bool "the cached worker replayed warmed cells" true
    (s.Harness.cache_hits > 0);
  List.iter
    (fun st ->
      check Alcotest.bool "socket worker exited cleanly" true (st = Unix.WEXITED 0))
    statuses

(* Kill a socket worker mid-campaign (the crash hook makes worker 0
   _exit after two results): the coordinator must requeue its cells and
   the report must not show a trace. *)
let test_socket_worker_crash_reassigns () =
  Unix.putenv "GCR_FABRIC_CRASH_AFTER" "2";
  let campaign, statuses =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "GCR_FABRIC_CRASH_AFTER" "")
      (fun () -> run_socket ~worker_caches:[ None; None ] ())
  in
  let s = Harness.summary campaign in
  check Alcotest.bool "cells were reassigned" true (s.Harness.reassigned_cells > 0);
  check Alcotest.bool "a worker death was recorded" true (s.Harness.worker_deaths >= 1);
  check Alcotest.bool "the crash exit code surfaced" true
    (List.mem (Unix.WEXITED 97) statuses);
  check_campaigns_identical ~what:"serial vs socket fabric with a killed worker"
    (Lazy.force serial) campaign

(* A worker that garbles its stream (raw bytes below the framing — an
   unterminated varint) must read as Corrupt at the coordinator and be
   treated exactly like a death: requeue, identical report, never a
   parse of untrusted bytes. *)
let test_garbled_stream_reassigns () =
  Unix.putenv "GCR_FABRIC_GARBLE_AFTER" "2";
  let garbled =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "GCR_FABRIC_GARBLE_AFTER" "")
      (fun () -> run_with ~workers:(Some 2) ())
  in
  let s = Harness.summary garbled in
  check Alcotest.bool "cells were reassigned" true (s.Harness.reassigned_cells > 0);
  check Alcotest.bool "the garbler was declared dead" true (s.Harness.worker_deaths >= 1);
  check_campaigns_identical ~what:"serial vs garbled fabric" (Lazy.force serial) garbled

(* --- The result cache: corruption is a clean miss, and no tapes. --- *)

let tiny_campaign ~workers ~cache_dir =
  let config =
    {
      (Harness.default_config ()) with
      Harness.invocations = 1;
      scale = 0.1;
      heap_factors = [ 1.9 ];
      log_progress = false;
      workers;
      cache_dir;
    }
  in
  Harness.run_campaign config
    ~benchmarks:[ Suite.find_exn "jme" ]
    ~gcs:[ Registry.Serial; Registry.G1 ]

let artifacts dir ~suffix =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort compare

(* Flip one byte mid-file (the marshalled payload) and one early byte
   (the entry's structural header) — the latter once segfaulted the
   process, because Marshal on corrupted input is not exception-safe;
   the store must reject the bytes before Marshal ever sees them. *)
let flip_byte path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  let flip pos = Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a)) in
  flip (Bytes.length b / 2);
  flip (min 20 (Bytes.length b - 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_result_corruption_reexecutes () =
  let dir = fresh_dir () in
  (* settle the minheap memo first (uncached throwaway campaign): probe
     runs otherwise ride the fabric into the same store, and "the first
     .run entry" below could name a probe instead of a grid cell *)
  let (_ : Harness.campaign) = tiny_campaign ~workers:(Some 1) ~cache_dir:None in
  let cold = tiny_campaign ~workers:(Some 1) ~cache_dir:(Some dir) in
  check Alcotest.int "cold campaign misses everything" 0
    (Harness.summary cold).Harness.cache_hits;
  let warm = tiny_campaign ~workers:(Some 1) ~cache_dir:(Some dir) in
  let cells = (Harness.summary warm).Harness.cells in
  check Alcotest.int "warm campaign hits everything" cells
    (Harness.summary warm).Harness.cache_hits;
  (* flip one byte of one result entry: the sealed payload digest no
     longer matches, so that cell must re-execute — and produce the
     identical measurement *)
  (match artifacts dir ~suffix:".run" with
  | entry :: _ -> flip_byte (Filename.concat dir entry)
  | [] -> Alcotest.fail "expected result artifacts in the store");
  let healed = tiny_campaign ~workers:(Some 1) ~cache_dir:(Some dir) in
  check Alcotest.int "corrupted entry re-executed, the rest hit" (cells - 1)
    (Harness.summary healed).Harness.cache_hits;
  check Alcotest.bool "re-execution is bit-identical" true
    (Harness.all_measurements warm = Harness.all_measurements healed);
  let again = tiny_campaign ~workers:(Some 1) ~cache_dir:(Some dir) in
  check Alcotest.int "the re-execution healed the store" cells
    (Harness.summary again).Harness.cache_hits

(* Workers generate the tapes they replay: a fabric campaign with a cache
   directory leaves only result entries there. *)
let test_fabric_stores_no_tapes () =
  let dir = fresh_dir () in
  let (_ : Harness.campaign) = tiny_campaign ~workers:(Some 2) ~cache_dir:(Some dir) in
  let files = Array.to_list (Sys.readdir dir) in
  check Alcotest.bool "the campaign cached results" true (files <> []);
  List.iter
    (fun f ->
      check Alcotest.bool (Printf.sprintf "%s is a result entry" f) true
        (Filename.check_suffix f ".run"))
    files

(* --- Protocol version skew. ---

   Version 1 workers carried a has-store byte in their hello and could
   fetch tapes over the wire; version 2 had neither, but its group
   frames carried a group id for revoke/ack work-stealing; version 3
   sends the group alone.  Version 2 has today's handshake layout, so it
   is the peer a deployment meets after an upgrade.  Each side reads
   the peer's version before anything else, answers a mismatch with its
   own versions, and drops the peer. *)

let v1_hello () =
  let b = Buffer.create 64 in
  Wire.put_varint b 1;
  Wire.put_string b Cache_key.version;
  Buffer.add_char b '\001' (* has-store *);
  Wire.put_string b "v1-peer";
  Buffer.contents b

(* The hello's layout since version 2. *)
let hello ~version =
  let b = Buffer.create 64 in
  Wire.put_varint b version;
  Wire.put_string b Cache_key.version;
  Wire.put_string b (Printf.sprintf "v%d-peer" version);
  Buffer.contents b

(* The welcome's layout is the same in every version. *)
let old_welcome ~version =
  let b = Buffer.create 64 in
  Wire.put_varint b version;
  Wire.put_string b Cache_key.version;
  Wire.put_string b "";
  Wire.put_varint b 0;
  Buffer.add_char b '\000' (* cache-results *);
  Buffer.contents b

let connect_loopback port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Transport.of_socket fd

(* A raw peer sending an old [hello] must get the coordinator's
   version-3 welcome and then EOF; the child exits 0 only if it saw
   exactly that. *)
let fork_old_peer ~port hello =
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (try
           let ep = connect_loopback port in
           Transport.send ep ~tag:'H' hello;
           match Transport.recv ep with
           | Some ('W', payload)
             when Wire.get_varint (Wire.cursor payload) "welcome version" = 3 -> (
               match Transport.recv ep with None -> 0 | Some _ -> 4)
           | Some _ | None -> 5
         with _ -> 6)
  | pid -> pid

(* A v1 and a v2 peer both try to join; no worker joins, so the backstop
   runs every cell. *)
let test_old_hellos_refused () =
  let pids = ref [] in
  let config =
    {
      (campaign_config ~workers:(Some 2)) with
      Harness.listen = Some ("127.0.0.1", 0);
      connect_timeout = 2.0;
      on_listen =
        Some
          (fun port ->
            pids := List.map (fork_old_peer ~port) [ v1_hello (); hello ~version:2 ]);
    }
  in
  let campaign = Harness.run_campaign config ~benchmarks ~gcs:Registry.production in
  let statuses = List.map (fun pid -> snd (Unix.waitpid [] pid)) !pids in
  check Alcotest.int "both peers connected" 2 (List.length statuses);
  List.iteri
    (fun i status ->
      check Alcotest.bool
        (Printf.sprintf "the v%d peer got a v3 welcome, then EOF" (i + 1))
        true (status = Unix.WEXITED 0))
    statuses;
  let s = Harness.summary campaign in
  check Alcotest.int "no worker joined" 0 (List.length s.Harness.worker_rows);
  check Alcotest.int "the backstop ran every cell" s.Harness.cells s.Harness.parent_cells;
  check_campaigns_identical ~what:"serial vs backstop after refused peers"
    (Lazy.force serial) campaign

(* A fake coordinator answers the hello with a version-1, then a
   version-2 welcome. *)
let test_old_welcomes_refused () =
  List.iter
    (fun version ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen sock 1;
      let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
      match Unix.fork () with
      | 0 ->
          Unix._exit
            (try
               let fd, _ = Unix.accept sock in
               Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
               let ep = Transport.of_socket fd in
               match Transport.recv ep with
               | Some ('H', _) ->
                   Transport.send ep ~tag:'W' (old_welcome ~version);
                   (* the worker hangs up after reading the welcome *)
                   ignore (Transport.recv ep);
                   0
               | Some _ | None -> 5
             with _ -> 6)
      | pid ->
          Unix.close sock;
          let result = Fabric.worker_connect ~host:"127.0.0.1" ~port ~retry_for:5.0 () in
          let _, status = Unix.waitpid [] pid in
          (match result with
          | Error msg ->
              check Alcotest.bool
                (Printf.sprintf "%S names the mismatch" msg)
                true
                (contains msg (Printf.sprintf "coordinator speaks v%d, this build v3" version))
          | Ok code -> Alcotest.failf "worker served a v%d coordinator (exit %d)" version code);
          check Alcotest.bool
            (Printf.sprintf "the fake v%d coordinator saw a hello" version)
            true (status = Unix.WEXITED 0))
    [ 1; 2 ]

(* --- A result batch is trusted no further than the deal. ---

   A raw v3 peer joins, runs the one-cell group it is dealt, and answers
   with that measurement under another index: one the plan does not
   have, or the cell of the group it was not dealt.  The coordinator
   must refuse the entry and drop the peer like a bad frame, so the
   backstop runs both cells.  The peer exits 0 only if the coordinator
   hangs up on it. *)

let fork_lying_peer ~port ~index =
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (try
           let ep = connect_loopback port in
           Transport.send ep ~tag:'H' (hello ~version:3);
           let welcome = Transport.recv ep in
           match (welcome, Transport.recv ep) with
           | Some ('W', _), Some ('G', payload) -> (
               let g = (Marshal.from_string payload 0 : Fabric.group) in
               let m = Run.execute (snd (List.hd g.Fabric.cells)) in
               Transport.send ep ~tag:'B'
                 (Marshal.to_string ([ (index, false, m) ], Gcr_runtime.Profile.zero) []);
               match Transport.recv ep with None -> 0 | Some _ -> 4)
           | _ -> 5
         with _ -> 6)
  | pid -> pid

let check_lying_peer_refused ~index () =
  let spec = Spec.scale (Suite.find_exn "jme") 0.05 in
  let configs =
    Array.map
      (fun gc -> Run.default_config ~spec ~gc ~heap_words:160_000 ~seed:7)
      [| Registry.Serial; Registry.G1 |]
  in
  (* the costlier group, cell 0's, is dealt to the peer *)
  let group i cost =
    { Fabric.spec; seed = 7; tapes = true; cost; cells = [ (i, configs.(i)) ] }
  in
  let pid = ref None in
  let log = ref [] in
  let session =
    Fabric.start ~workers:1 ~listen:("127.0.0.1", 0) ~connect_timeout:20.0
      ~log:(fun line -> log := line :: !log)
      ~on_listen:(fun port -> pid := Some (fork_lying_peer ~port ~index))
      ()
  in
  let measurements, stats =
    Fun.protect
      ~finally:(fun () -> Fabric.shutdown session)
      (fun () -> Fabric.dispatch session ~n_cells:2 [ group 0 2.0; group 1 1.0 ])
  in
  let status =
    match !pid with
    | Some pid -> snd (Unix.waitpid [] pid)
    | None -> Alcotest.fail "no peer was forked"
  in
  Array.iteri
    (fun i config ->
      check Alcotest.bool
        (Printf.sprintf "cell %d equals a fresh run" i)
        true
        (measurements.(i) = Run.execute config))
    configs;
  check Alcotest.bool "the coordinator hung up on the peer" true (status = Unix.WEXITED 0);
  let refusal = Printf.sprintf "cell %d it does not hold" index in
  check Alcotest.bool "the refusal was logged" true
    (List.exists (fun line -> contains line refusal) !log);
  check Alcotest.int "the peer's cell was requeued" 1 stats.Fabric.reassigned_cells;
  check Alcotest.int "the backstop ran both cells" 2 stats.Fabric.parent_cells

(* GCR_FABRIC_TIMEOUT_S: 0 disables, empty means unset, and anything that is
   not a finite number of seconds >= 0 is refused, by [Fabric.start] too,
   before it forks a worker. *)
let test_timeout_env_validated () =
  let var = "GCR_FABRIC_TIMEOUT_S" in
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var saved)
    (fun () ->
      let parse value =
        Unix.putenv var value;
        Fabric.timeout_of_env ()
      in
      List.iter
        (fun (value, expected) ->
          match parse value with
          | Ok t -> check (Alcotest.float 0.0) ("accepts " ^ value) expected t
          | Error reason -> Alcotest.failf "%S refused: %s" value reason)
        [ ("0", 0.0); ("2.5", 2.5); ("600", 600.0); ("", 600.0) ];
      List.iter
        (fun value ->
          match parse value with
          | Ok t -> Alcotest.failf "%S accepted as %g" value t
          | Error reason ->
              check Alcotest.bool ("reason names " ^ value) true
                (contains reason var && contains reason value))
        [ "abc"; "-5"; "nan"; "inf"; "1e999"; "10s" ];
      Unix.putenv var "abc";
      match Fabric.start ~workers:1 () with
      | session ->
          Fabric.shutdown session;
          Alcotest.fail "Fabric.start accepted a malformed timeout"
      | exception Invalid_argument reason ->
          check Alcotest.bool "start names the variable" true (contains reason var))

let suite =
  [
    Alcotest.test_case "workers=1 identical to serial" `Quick
      test_fabric_one_worker_identical;
    Alcotest.test_case "workers=4 identical to serial and workers=1" `Quick
      test_fabric_four_workers_identical;
    Alcotest.test_case "summary accounting" `Quick test_summary_accounting;
    Alcotest.test_case "workers=4 cells equal fresh runs" `Quick
      test_fabric_cells_equal_fresh_runs;
    Alcotest.test_case "worker crash reassigns cells" `Quick test_worker_crash_reassigns;
    Alcotest.test_case "crash requeues only its group" `Quick
      test_crash_requeues_only_current_group;
    Alcotest.test_case "dead fleet goes to the backstop" `Quick
      test_dead_fleet_goes_to_backstop;
    Alcotest.test_case "socket fabric identical (probes over the wire)" `Quick
      test_socket_fabric_identical;
    Alcotest.test_case "mixed-store socket fleet identical" `Quick
      test_socket_mixed_store_identical;
    Alcotest.test_case "socket worker crash reassigns cells" `Quick
      test_socket_worker_crash_reassigns;
    Alcotest.test_case "garbled worker stream reassigns cells" `Quick
      test_garbled_stream_reassigns;
    Alcotest.test_case "result corruption re-executes" `Quick
      test_result_corruption_reexecutes;
    Alcotest.test_case "fabric stores no tapes" `Quick test_fabric_stores_no_tapes;
    Alcotest.test_case "v1/v2 hellos get only a v3 welcome" `Quick test_old_hellos_refused;
    Alcotest.test_case "v1/v2 welcomes refused by a worker" `Quick test_old_welcomes_refused;
    Alcotest.test_case "malformed timeout refused" `Quick test_timeout_env_validated;
    Alcotest.test_case "result for an unplanned index drops the worker" `Quick
      (check_lying_peer_refused ~index:10_000);
    Alcotest.test_case "result for an undealt cell drops the worker" `Quick
      (check_lying_peer_refused ~index:1);
  ]
