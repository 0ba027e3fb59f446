(* The differential suite behind the campaign fabric's central promise:
   a multi-process campaign is bit-identical to the in-process one — at
   any worker count, through worker faults, through result-cache
   corruption (which must read as a miss and re-execute, never as a
   wrong result), and past peers that speak another protocol version.
   Worker faults are checked on the coordinator core, under seeded
   schedules, and once end to end through a real socket. *)

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

(* --- The coordinator core under seeded fault schedules. ---

   A fake fleet drives [Fabric.Coordinator] with no processes: a
   worker's result for cell [i] is [result i], and a schedule decides
   every fault.  A model of what each worker was sent checks every
   action the core answers. *)

module Core = Fabric.Coordinator

let result cell = 1000 + cell

type fault =
  | Answer of int * int  (** up to n held cells, starting at the k-th *)
  | Lose of Core.loss
  | Lie of int  (** a held cell's result under this index *)
  | Repeat  (** the last cell it returned, again *)

type schedule = {
  alive : bool array;  (** liveness at the start of the wave *)
  groups : (float * int list) list;  (** (cost, cells) *)
  sends_fail : bool list;  (** one per send; later sends succeed *)
  events : (int * fault) list;
      (** (worker, fault), one per wait; once they run out, the lowest
          live holder answers its whole group *)
}

type trace = { log : string list; requeued : int; backstopped : int }

exception Violation of string

let run_schedule s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt in
  let n_workers = Array.length s.alive in
  let n_cells = List.fold_left (fun n (_, cells) -> n + List.length cells) 0 s.groups in
  let group_cells = Array.of_list (List.map snd s.groups) in
  let core = Core.create ~alive:s.alive s.groups in
  let alive = Array.copy s.alive in
  let held = Array.make n_workers [] in
  let returned = Array.make n_workers [] in
  let reduced = Array.make n_cells 0 in
  let requeued = ref 0 and backstopped = ref 0 and log = ref [] in
  let sends = ref s.sends_fail and events = ref s.events in
  (* exactly the group's unreduced cells, in any order *)
  let unreduced cells group =
    cells <> []
    && List.sort compare cells
       = List.sort compare (List.filter (fun c -> reduced.(c) = 0) group_cells.(group))
  in
  let holder () =
    let rec go w = if w = n_workers || (alive.(w) && held.(w) <> []) then w else go (w + 1) in
    go 0
  in
  let act from = function
    | Core.Take { worker; cell; result = r } ->
        if worker <> from || not alive.(worker) then fail "took from worker %d" worker;
        if not (List.mem cell held.(worker)) then
          fail "worker %d: took cell %d it does not hold" worker cell;
        if r <> result cell then fail "cell %d reduced with cell %d's result" cell (r - 1000);
        reduced.(cell) <- reduced.(cell) + 1;
        held.(worker) <- List.filter (( <> ) cell) held.(worker);
        returned.(worker) <- cell :: returned.(worker)
    | Core.Drop { worker; log = lines } ->
        if worker <> from || not alive.(worker) then fail "dropped worker %d" worker;
        let lost = List.length held.(worker) in
        let died = Printf.sprintf "worker %d died; requeueing %d cell(s)" worker lost in
        (match List.rev lines with
        | last :: _ when last = died -> ()
        | _ -> fail "worker %d: drop logged %S, not %S" worker (String.concat " | " lines) died);
        requeued := !requeued + lost;
        log := List.rev_append lines !log;
        alive.(worker) <- false;
        held.(worker) <- []
  in
  let feed input =
    let from = match input with Core.Batch (w, _) | Core.Lost (w, _) -> w in
    List.iter (act from) (Core.step core input);
    if Core.requeued core <> !requeued then
      fail "requeued %d cells; the dropped workers held %d" (Core.requeued core) !requeued
  in
  let answer w cells = feed (Core.Batch (w, List.map (fun c -> (c, result c)) cells)) in
  let rec rotate k = function [] -> [] | l when k = 0 -> l | x :: r -> rotate (k - 1) (r @ [ x ]) in
  let event (w, fault) =
    let w = w mod n_workers in
    match fault with
    | Answer (n, k) -> answer w (List.filteri (fun i _ -> i < n) (rotate k held.(w)))
    | Lose loss -> feed (Core.Lost (w, loss))
    | Lie index when List.mem index held.(w) -> answer w [ index ]
    | Lie index ->
        let value = match held.(w) with c :: _ -> result c | [] -> result index + 1 in
        feed (Core.Batch (w, [ (index, value) ]))
    | Repeat -> answer w (match returned.(w) with c :: _ -> [ c ] | [] -> [])
  in
  let bound =
    2 * (n_cells + List.length s.events + List.length s.sends_fail + n_workers + 1)
  in
  let rec loop steps =
    if steps > bound then fail "the wave did not end within %d steps" bound;
    match Core.deal core with
    | Core.Send { worker; group; cells } ->
        if not alive.(worker) then fail "sent group %d to dead worker %d" group worker;
        if held.(worker) <> [] then fail "sent group %d to busy worker %d" group worker;
        if not (unreduced cells group) then
          fail "sent group %d with cells other than its unreduced ones" group;
        held.(worker) <- cells;
        let failed = match !sends with f :: rest -> sends := rest; f | [] -> false in
        if failed then feed (Core.Lost (worker, Core.Send_failed));
        loop (steps + 1)
    | Core.Wait ->
        let w = holder () in
        if w = n_workers then fail "waits, but no live worker holds a group";
        (match !events with
        | e :: rest ->
            events := rest;
            event e
        | [] -> answer w held.(w));
        loop (steps + 1)
    | Core.Backstop rest ->
        if holder () < n_workers then fail "backstop while worker %d holds cells" (holder ());
        List.iter
          (fun (group, cells) ->
            if not (unreduced cells group) then
              fail "backstop of group %d with cells other than its unreduced ones" group;
            List.iter (fun c -> reduced.(c) <- reduced.(c) + 1) cells;
            backstopped := !backstopped + List.length cells)
          rest
  in
  (try loop 0 with
  | Violation _ as e -> raise e
  | e -> fail "the core raised %s" (Printexc.to_string e));
  Array.iteri
    (fun c n -> if n <> 1 then fail "cell %d reduced %d times" c n)
    reduced;
  { log = List.rev !log; requeued = !requeued; backstopped = !backstopped }

let print_schedule s =
  let loss = function
    | Core.Hangup -> "eof"
    | Core.Corrupt_frame _ -> "corrupt"
    | Core.Bad_payload _ -> "payload"
    | Core.Unknown_tag _ -> "tag"
    | Core.Send_failed -> "send"
    | Core.Silent _ -> "silent"
  in
  let fault = function
    | Answer (n, k) -> Printf.sprintf "answer %d from %d" n k
    | Lose l -> loss l
    | Lie i -> Printf.sprintf "lie %d" i
    | Repeat -> "repeat"
  in
  Printf.sprintf "alive=[%s] groups=[%s] sends_fail=[%s] events=[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_bool s.alive)))
    (String.concat "; "
       (List.map
          (fun (cost, cells) ->
            Printf.sprintf "%g:%s" cost (String.concat "," (List.map string_of_int cells)))
          s.groups))
    (String.concat ";" (List.map string_of_bool s.sends_fail))
    (String.concat "; " (List.map (fun (w, f) -> Printf.sprintf "w%d %s" w (fault f)) s.events))

let schedule_gen =
  QCheck.Gen.(
    let* n_workers = int_range 1 4 in
    let* alive = array_repeat n_workers (frequency [ (5, return true); (1, return false) ]) in
    let* sizes = list_size (int_range 1 6) (int_range 1 5) in
    let n_cells = List.fold_left ( + ) 0 sizes in
    let* order = shuffle_l (List.init n_cells Fun.id) in
    let* costs = list_repeat (List.length sizes) (map float_of_int (int_range 0 3)) in
    let rec split cells = function
      | [] -> []
      | n :: rest ->
          List.filteri (fun i _ -> i < n) cells
          :: split (List.filteri (fun i _ -> i >= n) cells) rest
    in
    let groups = List.combine costs (split order sizes) in
    let* sends_fail =
      list_size (int_range 0 6) (frequency [ (4, return false); (1, return true) ])
    in
    let loss =
      oneofl
        [ Core.Hangup; Core.Corrupt_frame "bad checksum"; Core.Bad_payload "input_value";
          Core.Unknown_tag 'Z'; Core.Silent 601.0 ]
    in
    let fault =
      frequency
        [
          (6, map2 (fun n k -> Answer (n, k)) (int_range 0 4) (int_range 0 4));
          (2, map (fun l -> Lose l) loss);
          (1, map (fun i -> Lie i) (int_range (-2) (n_cells + 2)));
          (1, return Repeat);
        ]
    in
    let* events = list_size (int_range 0 30) (pair (int_range 0 3) fault) in
    return { alive; groups; sends_fail; events })

let prop_core_invariants =
  QCheck.Test.make ~name:"coordinator core keeps its invariants under fault schedules"
    ~count:2000
    (QCheck.make ~print:print_schedule schedule_gen)
    (fun s ->
      match run_schedule s with
      | (_ : trace) -> true
      | exception Violation msg -> QCheck.Test.fail_report msg)

(* Fixed schedules for the faults the fabric once got wrong. *)

let cells_from first n = List.init n (fun i -> first + i)

let run_fixed s =
  match run_schedule s with
  | trace -> trace
  | exception Violation msg -> Alcotest.failf "%s: %s" (print_schedule s) msg

(* One worker and two 11-cell groups: it dies after 2 results of the
   first, so 9 cells are requeued, and the backstop runs those and the
   group that was never sent. *)
let test_crash_requeues_only_current_group () =
  let t =
    run_fixed
      {
        alive = [| true |];
        groups = [ (2.0, cells_from 0 11); (1.0, cells_from 11 11) ];
        sends_fail = [];
        events = [ (0, Answer (2, 0)); (0, Lose Core.Hangup) ];
      }
  in
  check Alcotest.int "only the running group's unfinished cells were requeued" 9 t.requeued;
  check Alcotest.int "the backstop ran the rest" 20 t.backstopped

(* The last worker dies in a send: the core must go straight to the
   backstop rather than wait for input that cannot come. *)
let test_dead_fleet_goes_to_backstop () =
  let t =
    run_fixed
      { alive = [| true |]; groups = [ (1.0, [ 0 ]) ]; sends_fail = [ true ]; events = [] }
  in
  check Alcotest.int "the backstop ran the cell" 1 t.backstopped

(* A worker answers its one-cell group under another index: one the plan
   does not have, or the cell of the group it was not dealt.  The core
   must refuse it and drop the worker, so the backstop runs both cells. *)
let check_lying_worker_refused ~index () =
  let t =
    run_fixed
      {
        alive = [| true |];
        groups = [ (2.0, [ 0 ]); (1.0, [ 1 ]) ];
        sends_fail = [];
        events = [ (0, Lie index) ];
      }
  in
  check (Alcotest.list Alcotest.string) "the refusal was logged"
    [
      Printf.sprintf "worker 0: result for cell %d it does not hold" index;
      "worker 0 died; requeueing 1 cell(s)";
    ]
    t.log;
  check Alcotest.int "the backstop ran both cells" 2 t.backstopped

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

(* --- A garbling socket worker. ---

   A raw v3 peer joins, answers the first cell of the group it is dealt,
   then writes bytes below the framing (an unterminated varint) and
   hangs up.  The coordinator must keep the answered cell, refuse the
   stream as corrupt, drop the peer and run the rest on the backstop,
   all with fresh-run results.  The peer exits 0 only if the
   coordinator hangs up on it. *)

let fork_garbling_peer ~port =
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
               let index, config = List.hd g.Fabric.cells in
               Transport.send ep ~tag:'B'
                 (Marshal.to_string
                    ([ (index, false, Run.execute config) ], Gcr_runtime.Profile.zero)
                    []);
               let garbage = String.make 10 '\xff' in
               ignore (Unix.write_substring (Transport.send_fd ep) garbage 0 10 : int);
               match Transport.recv ep with None -> 0 | Some _ -> 4)
           | _ -> 5
         with _ -> 6)
  | pid -> pid

let test_garbled_stream_reassigns () =
  let spec = Spec.scale (Suite.find_exn "jme") 0.05 in
  let configs =
    Array.map
      (fun gc -> Run.default_config ~spec ~gc ~heap_words:160_000 ~seed:7)
      [| Registry.Serial; Registry.G1; Registry.Parallel |]
  in
  let cells = Array.to_list (Array.mapi (fun i config -> (i, config)) configs) in
  let pid = ref None in
  let log = ref [] in
  let session =
    Fabric.start ~workers:1 ~listen:("127.0.0.1", 0) ~connect_timeout:20.0
      ~log:(fun line -> log := line :: !log)
      ~on_listen:(fun port -> pid := Some (fork_garbling_peer ~port))
      ()
  in
  let measurements, stats =
    Fun.protect
      ~finally:(fun () -> Fabric.shutdown session)
      (fun () ->
        Fabric.dispatch session ~n_cells:3
          [ { Fabric.spec; seed = 7; tapes = true; cost = 1.0; cells } ])
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
  check Alcotest.bool "the corrupt stream was logged" true
    (List.exists (fun line -> contains line "worker 0: corrupt stream") !log);
  check (Alcotest.array Alcotest.int) "the peer's answer was kept" [| 1 |]
    stats.Fabric.per_worker;
  check Alcotest.int "the rest of its group was requeued" 2 stats.Fabric.reassigned_cells;
  check Alcotest.int "the backstop ran the rest" 2 stats.Fabric.parent_cells

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
    QCheck_alcotest.to_alcotest prop_core_invariants;
    Alcotest.test_case "crash requeues only its group" `Quick
      test_crash_requeues_only_current_group;
    Alcotest.test_case "dead fleet goes to the backstop" `Quick
      test_dead_fleet_goes_to_backstop;
    Alcotest.test_case "result for an unplanned index drops the worker" `Quick
      (check_lying_worker_refused ~index:10_000);
    Alcotest.test_case "result for an undealt cell drops the worker" `Quick
      (check_lying_worker_refused ~index:1);
    Alcotest.test_case "socket fabric identical (probes over the wire)" `Quick
      test_socket_fabric_identical;
    Alcotest.test_case "mixed-store socket fleet identical" `Quick
      test_socket_mixed_store_identical;
    Alcotest.test_case "garbled worker stream reassigns cells" `Quick
      test_garbled_stream_reassigns;
    Alcotest.test_case "result corruption re-executes" `Quick
      test_result_corruption_reexecutes;
    Alcotest.test_case "fabric stores no tapes" `Quick test_fabric_stores_no_tapes;
    Alcotest.test_case "v1/v2 hellos get only a v3 welcome" `Quick test_old_hellos_refused;
    Alcotest.test_case "v1/v2 welcomes refused by a worker" `Quick test_old_welcomes_refused;
    Alcotest.test_case "malformed timeout refused" `Quick test_timeout_env_validated;
  ]
