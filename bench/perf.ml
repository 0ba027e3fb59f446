(* Tracked performance benchmark harness for the simulator hot paths.

   Two layers, both timed as the best of a few repetitions:
   - wall-clock kernels: deterministic workloads timed end-to-end, reported
     in work-units/second (or seconds for the full-run kernel).  These are
     the numbers the BENCH_<n>.json trajectory tracks PR over PR.
   - micro kernels: ns per call of the finest kernels (event push/pop,
     object-table lookup, allocation), for diagnosis; never gated.

   Usage:
     perf.exe [--smoke] [--out FILE] [--baseline FILE] [--label TEXT]

   --smoke      cut repetitions/sizes for CI (~15s total)
   --out        write the JSON report here (default: BENCH_<n>.json with the
                first free n in the current directory)
   --baseline   compare against a previous report; exit 1 when any shared
                wall-clock kernel regresses by more than 20%.  The report
                must have been recorded in the same mode (smoke or full):
                smoke mode sizes some kernels smaller, so a cross-mode
                comparison exits 2 before any kernel runs

   The JSON is self-describing: every entry carries its unit and direction,
   so future PRs can add kernels without breaking the comparison. *)

module Engine = Gcr_engine.Engine
module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Binary_heap = Gcr_util.Binary_heap
module Tracer = Gcr_gcs.Tracer
module Gc_types = Gcr_gcs.Gc_types
module Cost_model = Gcr_mach.Cost_model
module Machine = Gcr_mach.Machine
module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Prng = Gcr_util.Prng
module Tape = Gcr_tape.Tape
module Tape_gen = Gcr_workloads.Tape_gen
module Decision_source = Gcr_workloads.Decision_source
module Harness = Gcr_core.Harness
module Minheap = Gcr_core.Minheap
module Fabric = Gcr_sched.Fabric
module Transport = Gcr_sched.Transport

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

type options = {
  mutable smoke : bool;
  mutable out : string option;
  mutable baseline : string option;
  mutable label : string;
}

let options = { smoke = false; out = None; baseline = None; label = "" }

let parse_args () =
  let rec loop = function
    | [] -> ()
    | "--smoke" :: rest ->
        options.smoke <- true;
        loop rest
    | "--out" :: file :: rest ->
        options.out <- Some file;
        loop rest
    | "--baseline" :: file :: rest ->
        options.baseline <- Some file;
        loop rest
    | "--label" :: text :: rest ->
        options.label <- text;
        loop rest
    | arg :: _ ->
        Printf.eprintf
          "perf.exe: unknown argument %s\n\
           usage: perf.exe [--smoke] [--out FILE] [--baseline FILE] [--label TEXT]\n"
          arg;
        exit 2
  in
  loop (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Result records and JSON                                             *)
(* ------------------------------------------------------------------ *)

type direction = Higher_is_better | Lower_is_better

type result = {
  name : string;
  value : float;
  unit_ : string;
  direction : direction;
  tracked : bool;  (** participates in the --baseline regression gate *)
}

let results : result list ref = ref []

let record ?(tracked = true) name value unit_ direction =
  results := { name; value; unit_; direction; tracked } :: !results;
  Printf.printf "  %-34s %14.1f %s\n%!" name value unit_

(* Minimal JSON emission; the only string fields are identifiers and units
   we control, so escaping stays simple. *)
let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json file =
  let oc = open_out file in
  let entries = List.rev !results in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"gcr-bench/1\",\n";
  Printf.fprintf oc "  \"label\": \"%s\",\n" (json_escape options.label);
  Printf.fprintf oc "  \"smoke\": %b,\n" options.smoke;
  Printf.fprintf oc "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\", \"higher_is_better\": %b, \"tracked\": %b}%s\n"
        (json_escape r.name) r.value (json_escape r.unit_)
        (r.direction = Higher_is_better)
        r.tracked
        (if i = List.length entries - 1 then "" else ",")
    )
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" file

let next_bench_file () =
  let rec free n =
    let file = Printf.sprintf "BENCH_%d.json" n in
    if Sys.file_exists file then free (n + 1) else file
  in
  free 1

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

(* A deliberately small JSON reader: enough for the files this harness
   writes (a top-level "smoke" flag, then a flat "results" array of
   objects with scalar fields).  Returns the flag ([None] when absent) and
   the entries. *)
let parse_baseline file =
  let text =
    match In_channel.with_open_bin file In_channel.input_all with
    | text -> text
    | exception Sys_error reason ->
        Printf.eprintf "perf.exe: cannot read baseline: %s\n" reason;
        exit 2
  in
  let entries = ref [] in
  let find_field obj field =
    let pat = Printf.sprintf "\"%s\":" field in
    let rec search from =
      if from + String.length pat > String.length obj then None
      else if String.sub obj from (String.length pat) = pat then
        Some (from + String.length pat)
      else search (from + 1)
    in
    match search 0 with
    | None -> None
    | Some start -> Some (String.trim (String.sub obj start (String.length obj - start)))
  in
  let scan_string s =
    (* s starts at the value; expects a leading quote *)
    if String.length s = 0 || s.[0] <> '"' then None
    else
      match String.index_from_opt s 1 '"' with
      | None -> None
      | Some close -> Some (String.sub s 1 (close - 1))
  in
  let scan_number s =
    let stop = ref 0 in
    let n = String.length s in
    while
      !stop < n
      && (match s.[!stop] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr stop
    done;
    if !stop = 0 then None else float_of_string_opt (String.sub s 0 !stop)
  in
  let scan_bool s =
    if String.length s >= 4 && String.sub s 0 4 = "true" then Some true
    else if String.length s >= 5 && String.sub s 0 5 = "false" then Some false
    else None
  in
  let results_start = String.index_opt text '[' in
  let header = match results_start with Some i -> String.sub text 0 i | None -> text in
  let smoke = Option.bind (find_field header "smoke") scan_bool in
  (* split on "{" at object depth 2 inside the results array *)
  (match results_start with
  | None -> ()
  | Some arr_start ->
      let i = ref arr_start in
      let n = String.length text in
      while !i < n do
        if text.[!i] = '{' then begin
          (match String.index_from_opt text !i '}' with
          | None -> i := n
          | Some close ->
              let obj = String.sub text !i (close - !i + 1) in
              (match
                 ( Option.bind (find_field obj "name") scan_string,
                   Option.bind (find_field obj "value") scan_number,
                   Option.bind (find_field obj "higher_is_better") scan_bool,
                   Option.bind (find_field obj "tracked") scan_bool )
               with
              | Some name, Some value, Some hib, tracked ->
                  entries :=
                    (name, value, hib, Option.value tracked ~default:true) :: !entries
              | _ -> ());
              i := close + 1)
        end
        else incr i
      done);
  (smoke, List.rev !entries)

let mode_name smoke = if smoke then "smoke" else "full"

(* Read before any kernel runs, so a baseline the gate cannot use fails in
   a second rather than after the whole run. *)
let load_baseline file =
  let smoke, entries = parse_baseline file in
  match smoke with
  | Some smoke when smoke = options.smoke -> entries
  | Some smoke ->
      Printf.eprintf "perf.exe: baseline %s was recorded in %s mode, this run is %s mode\n"
        file (mode_name smoke) (mode_name options.smoke);
      exit 2
  | None ->
      Printf.eprintf "perf.exe: baseline %s has no \"smoke\" flag, so its mode is unknown\n"
        file;
      exit 2

let compare_baseline file baseline =
  let tolerance = 0.20 in
  let failures = ref 0 in
  Printf.printf "\ncomparison vs %s (gate: 20%% on tracked kernels)\n" file;
  List.iter
    (fun r ->
      match List.find_opt (fun (name, _, _, _) -> name = r.name) baseline with
      | None -> Printf.printf "  %-34s (new kernel, no baseline)\n" r.name
      | Some (_, old_value, _, old_tracked) ->
          let ratio = if old_value = 0.0 then 1.0 else r.value /. old_value in
          let regressed =
            match r.direction with
            | Higher_is_better -> ratio < 1.0 -. tolerance
            | Lower_is_better -> ratio > 1.0 +. tolerance
          in
          let gated = r.tracked && old_tracked in
          let verdict =
            if regressed && gated then begin
              incr failures;
              "REGRESSION"
            end
            else if regressed then "regressed (untracked)"
            else "ok"
          in
          Printf.printf "  %-34s %8.2fx vs baseline  %s\n" r.name ratio verdict)
    (List.rev !results);
  if !failures > 0 then begin
    Printf.printf "FAILED: %d tracked kernel(s) regressed more than 20%%\n%!" !failures;
    exit 1
  end
  else Printf.printf "baseline check passed\n%!"

(* ------------------------------------------------------------------ *)
(* Wall-clock kernels                                                  *)
(* ------------------------------------------------------------------ *)

(* Repeat a deterministic kernel and keep the best rate: least-disturbed
   run, standard practice for throughput kernels. *)
let best_of reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Event-loop throughput: one engine, [threads] mutators each chaining
   [steps] fixed-cost steps, plus a timer per step on a second clock line.
   Events/second of host time is the tracked figure. *)
let bench_event_loop ~threads ~steps ~reps =
  let total_events = ref 0 in
  let run () =
    let engine = Engine.create ~cpus:4 () in
    let spawned =
      List.init threads (fun i ->
          Engine.spawn engine ~kind:Engine.Mutator ~name:(Printf.sprintf "m%d" i))
    in
    total_events := 0;
    List.iter
      (fun th ->
        let remaining = ref steps in
        let rec step () =
          incr total_events;
          if !remaining = 0 then Engine.exit_thread engine th
          else begin
            decr remaining;
            Engine.submit engine th ~cycles:17 step
          end
        in
        Engine.submit engine th ~cycles:13 step)
      spawned;
    match Engine.run engine () with
    | Engine.All_mutators_finished -> ()
    | Engine.Aborted reason -> failwith ("bench_event_loop aborted: " ^ reason)
  in
  let dt = best_of reps run in
  float_of_int !total_events /. dt

(* Stall/timer-heavy event mix: stresses the event queue with interleaved
   priorities (stalls land ahead of steps), closer to the concurrent
   collectors' usage. *)
let bench_event_mix ~threads ~steps ~reps =
  let total_events = ref 0 in
  let run () =
    let engine = Engine.create ~cpus:2 () in
    let spawned =
      List.init threads (fun i ->
          Engine.spawn engine ~kind:Engine.Gc_worker ~name:(Printf.sprintf "w%d" i))
    in
    let sink = Engine.spawn engine ~kind:Engine.Mutator ~name:"sink" in
    total_events := 0;
    List.iter
      (fun th ->
        let remaining = ref steps in
        let rec step () =
          incr total_events;
          if !remaining = 0 then Engine.exit_thread engine th
          else begin
            decr remaining;
            if !remaining mod 3 = 0 then Engine.stall engine th ~cycles:11 step
            else Engine.submit engine th ~cycles:29 step
          end
        in
        Engine.submit engine th ~cycles:7 step)
      spawned;
    (* keep one mutator alive until the workers drain, then let it exit *)
    let rec keepalive n =
      if n = 0 then Engine.exit_thread engine sink
      else Engine.submit engine sink ~cycles:1000 (fun () -> keepalive (n - 1))
    in
    keepalive (threads * steps / 100);
    match Engine.run engine () with
    | Engine.All_mutators_finished -> ()
    | Engine.Aborted reason -> failwith ("bench_event_mix aborted: " ^ reason)
  in
  let dt = best_of reps run in
  float_of_int !total_events /. dt

(* Trace rate: a fixed object graph (geometric chains into a long-lived
   core, like the workloads build), fully traced per iteration. *)
let make_traced_heap ~objects =
  let heap = Heap.create ~capacity_words:(objects * 16 * 2) ~region_words:256 () in
  let alloc = Allocator.create heap ~space:Region.Old in
  let prng = Prng.create 7 in
  let ids = Array.make objects Obj_model.null in
  for i = 0 to objects - 1 do
    match Allocator.alloc alloc ~size:12 ~nfields:4 with
    | Allocator.Allocated { obj; _ } ->
        ids.(i) <- obj;
        (* chain to a recent object and to two random earlier ones *)
        if i > 0 then begin
          Heap.set_field heap obj 0 ids.(i - 1);
          Heap.set_field heap obj 1 ids.(Prng.int prng i);
          Heap.set_field heap obj 2 ids.(Prng.int prng i)
        end
    | Allocator.Out_of_regions -> failwith "make_traced_heap: out of regions"
  done;
  (heap, ids.(objects - 1))

let bench_trace_rate ~objects ~reps =
  let heap, root = make_traced_heap ~objects in
  let engine = Engine.create ~cpus:4 () in
  let ctx = Gc_types.make_ctx ~heap ~engine ~cost:Cost_model.default ~machine:Machine.default in
  let marked = ref 0 in
  let run () =
    let tracer =
      Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
        ~update_region_live:false ()
    in
    ignore (Heap.begin_mark_epoch heap);
    Tracer.add_root tracer root;
    ignore (Tracer.drain tracer ~budget:max_int);
    marked := Tracer.objects_marked tracer
  in
  let dt = best_of reps run in
  (float_of_int !marked /. dt, !marked)

(* Allocation fast path: bump-allocate through an allocator until the heap
   is full, then release every region and go again. *)
let bench_alloc ~regions ~reps =
  let region_words = 256 in
  let heap = Heap.create ~capacity_words:(regions * region_words) ~region_words () in
  let count = ref 0 in
  let run () =
    let alloc = Allocator.create heap ~space:Region.Eden in
    count := 0;
    let continue_ = ref true in
    while !continue_ do
      match Allocator.alloc alloc ~size:8 ~nfields:2 with
      | Allocator.Allocated _ -> incr count
      | Allocator.Out_of_regions -> continue_ := false
    done;
    Allocator.retire alloc;
    Heap.iter_regions
      (fun r ->
        if not (Region.space_equal r.Region.space Region.Free) then
          Heap.release_region heap r)
      heap
  in
  let dt = best_of reps run in
  float_of_int !count /. dt

(* Full-run kernel: lusearch at ~3x its minimum heap, one fixed-seed
   invocation with the paper's default concurrent collector.  Seconds of
   host time, the closest proxy for campaign cost. *)
let bench_full_run ~scale ~reps =
  let spec = Spec.scale (Suite.find_exn "lusearch") scale in
  let heap_words = 36_864 in
  let run () =
    let m =
      Run.execute (Run.default_config ~spec ~gc:Registry.G1 ~heap_words ~seed:42)
    in
    match m.Gcr_runtime.Measurement.outcome with
    | Gcr_runtime.Measurement.Completed -> ()
    | Gcr_runtime.Measurement.Failed reason -> failwith ("bench_full_run failed: " ^ reason)
  in
  best_of reps run

(* Same configuration replayed from a workload tape: the image is built
   once outside the timed region, as the campaign harness does, so the
   kernel isolates the replay-mode run cost (array cursors instead of
   PRNG mixing and float math on the mutator hot path). *)
let bench_full_run_replay ~scale ~reps =
  let spec = Spec.scale (Suite.find_exn "lusearch") scale in
  let heap_words = 36_864 in
  let image = Decision_source.image_of_tape ~spec (Tape_gen.generate ~spec ~seed:42) in
  let run () =
    let m =
      Run.execute
        {
          (Run.default_config ~spec ~gc:Registry.G1 ~heap_words ~seed:42) with
          Run.tape = Run.Tape_replay image;
        }
    in
    match m.Gcr_runtime.Measurement.outcome with
    | Gcr_runtime.Measurement.Completed -> ()
    | Gcr_runtime.Measurement.Failed reason ->
        failwith ("bench_full_run_replay failed: " ^ reason)
  in
  best_of reps run

(* Raw replay-cursor throughput: consume every thread's recorded stream
   through the five decision kinds in the mutator's per-allocation mix.
   Decisions/second of host time; an upper bound on how fast replay mode
   can feed the simulator. *)
let bench_tape_decisions ~passes ~reps =
  let spec = Spec.scale (Suite.find_exn "lusearch") 0.25 in
  let tape = Tape_gen.generate ~spec ~seed:42 in
  let image = Decision_source.image_of_tape ~spec tape in
  let threads = Array.length tape.Tape.streams in
  let sink = ref 0 in
  let total = ref 0 in
  let run () =
    total := 0;
    for _ = 1 to passes do
      for t = 0 to threads - 1 do
        let ds = Decision_source.replay image ~thread:t in
        (* groups of five draws keep consumption inside the recorded
           stream (no live-PRNG fallback) *)
        let groups = Array.length tape.Tape.streams.(t).Tape.raw / 5 in
        for _ = 1 to groups do
          let size = Decision_source.draw_size ds in
          let c = if Decision_source.chain ds then 1 else 0 in
          let l = if Decision_source.ll_ref ds then 1 else 0 in
          let s = if Decision_source.survive ds then 1 else 0 in
          let idx = Decision_source.index ds 1024 in
          sink := !sink + size + c + l + s + idx
        done;
        total := !total + (groups * 5)
      done
    done
  in
  let dt = best_of reps run in
  ignore (Sys.opaque_identity !sink);
  float_of_int !total /. dt

(* Per-cell overhead of the warm path: the same small cell executed
   back-to-back N times, once through one shared Run.state (engine/heap
   reset in place) and once building everything fresh — µs/cell each
   way.  The spread is the setup cost the warm campaign path amortises;
   both ride along untracked (the tracked campaign kernels below gate
   the end-to-end effect). *)
let bench_warm_overhead ~cells ~reps =
  let spec = Spec.scale (Suite.find_exn "lusearch") 0.02 in
  let config = Run.default_config ~spec ~gc:Registry.G1 ~heap_words:36_864 ~seed:42 in
  let warm () =
    let state = Run.new_state () in
    for _ = 1 to cells do
      ignore (Run.execute ~state config)
    done
  in
  let fresh () =
    for _ = 1 to cells do
      ignore (Run.execute config)
    done
  in
  let dw = best_of reps warm in
  let df = best_of reps fresh in
  let per d = d *. 1e6 /. float_of_int cells in
  (per dw, per df)

(* The thrashing min-heap probe: jme's floor probe of [gcr minheap
   --scale 0.02 --seed 7] (G1, 3,840 words), cut at 200,000 engine events,
   on a warm Run.state.  Nearly every pause is a scavenge, a full mark
   and a compaction on 13 STW workers, most of whose steps are zero-cycle
   resumes and termination barriers, so these kernels time the engine's
   per-event path and the pause loop: host µs per simulated pause and
   engine events per second. *)
let bench_thrash ~reps =
  let grid = { (Harness.default_config ()) with Harness.scale = 0.02; base_seed = 7 } in
  let search =
    Minheap.Search.start (Harness.minheap_config grid) (Spec.scale (Suite.find_exn "jme") 0.02)
  in
  let max_events = 200_000 in
  let config =
    { (Option.get (Minheap.Search.probe_config search)) with Run.max_events = Some max_events }
  in
  let state = Run.new_state () in
  let pauses = ref 0 in
  let run () =
    let m = Run.execute ~state config in
    (match m.Gcr_runtime.Measurement.outcome with
    | Gcr_runtime.Measurement.Failed "event budget exhausted" -> ()
    | _ -> failwith "bench_thrash: the probe must run to its event budget");
    pauses := Gcr_runtime.Measurement.pause_count m
  in
  run ();
  let dt = best_of reps run in
  (dt *. 1e6 /. float_of_int !pauses, float_of_int max_events /. dt)

(* Campaign throughput: one fixed grid (lusearch, the production
   collectors, several heap factors and invocations) executed through the
   multi-process fabric and in-process, in cells/second of host time.
   The minheap is memoized before any timed region so every variant times
   the grid alone.

   The tracked figure is the fabric at 4 workers — the executor campaigns
   default to on multicore hosts.  The in-process variant rides along
   untracked. *)
let campaign_grid ~smoke =
  let spec = Suite.find_exn "lusearch" in
  let config =
    {
      (Harness.default_config ()) with
      Harness.invocations = (if smoke then 4 else 8);
      (* small cells on purpose: campaign grids are dominated by cheap
         cells (most of the heap-factor axis completes quickly), and the
         scheduling overheads this kernel tracks only show at that grain *)
      scale = 0.02;
      heap_factors = (if smoke then [ 1.9; 3.0 ] else [ 1.9; 2.4; 3.0; 4.4 ]);
      log_progress = false;
      cache_dir = None;
    }
  in
  (config, spec)

let bench_campaign ~smoke ~workers =
  let config, spec = campaign_grid ~smoke in
  let config = { config with Harness.workers } in
  let reps = if smoke then 1 else 2 in
  (* best-of over seconds-per-cell: the host is shared, so the fastest
     rep is the least-disturbed one *)
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let campaign =
      Harness.run_campaign config ~benchmarks:[ spec ] ~gcs:Registry.production
    in
    let dt = Unix.gettimeofday () -. t0 in
    let cells = (Harness.summary campaign).Harness.cells in
    best := min !best (dt /. float_of_int cells)
  done;
  1.0 /. !best

(* The same grid over TCP on loopback: the coordinator binds an
   ephemeral port and the workers are forked [worker_connect] children
   with no result cache.  Each worker generates the tapes it replays,
   and every result rides a marshalled batch frame.  Both fleets
   handshake, so the spread between this and the forked figure above
   (a Unix socketpair per worker; the untracked ratio keeps its old
   [dist_tax_vs_pipe] name) is TCP against a socketpair: the tax the
   cross-host deployment pays. *)
let fork_socket_worker ~port =
  match Unix.fork () with
  | 0 ->
      (* the connect banner is progress chatter, not bench output *)
      (let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 devnull Unix.stderr;
       Unix.close devnull);
      Unix._exit
        (match
           Fabric.worker_connect ~host:"127.0.0.1" ~port ~retry_for:20.0 ()
         with
        | Ok () -> 0
        | Error msg ->
            Printf.eprintf "bench worker: %s\n%!" msg;
            3)
  | pid -> pid

let bench_dist_campaign ~smoke ~workers =
  let config, spec = campaign_grid ~smoke in
  let pids = ref [] in
  let config =
    {
      config with
      Harness.workers = Some workers;
      listen = Some ("127.0.0.1", 0);
      connect_timeout = 30.0;
      on_listen =
        Some
          (fun port ->
            for _ = 1 to workers do
              pids := fork_socket_worker ~port :: !pids
            done);
    }
  in
  let reps = if smoke then 1 else 2 in
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let campaign =
      Harness.run_campaign config ~benchmarks:[ spec ] ~gcs:Registry.production
    in
    let dt = Unix.gettimeofday () -. t0 in
    List.iter (fun pid -> ignore (Unix.waitpid [] pid)) !pids;
    pids := [];
    let cells = (Harness.summary campaign).Harness.cells in
    best := min !best (dt /. float_of_int cells)
  done;
  1.0 /. !best

(* Socket-frame overhead in isolation: a request/reply pair of modest
   frames over a Unix socketpair, both endpoints in-process.  µs per
   roundtrip (encode + checksum + write + read + verify + decode, twice);
   the floor under every fabric message that isn't a tape transfer. *)
let bench_frame_roundtrip ~frames ~reps =
  let a, z = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let req = Transport.of_socket a and rsp = Transport.of_socket z in
  let payload = String.init 512 (fun i -> Char.chr (i land 0xff)) in
  let scratch = Buffer.create 1024 in
  let run () =
    for _ = 1 to frames do
      Transport.send ~scratch req ~tag:'B' payload;
      (match Transport.recv rsp with
      | Some ('B', _) -> ()
      | _ -> failwith "frame roundtrip: bad request frame");
      Transport.send ~scratch rsp ~tag:'A' payload;
      match Transport.recv req with
      | Some ('A', _) -> ()
      | _ -> failwith "frame roundtrip: bad reply frame"
    done
  in
  let dt = best_of reps run in
  Transport.close req;
  Transport.close rsp;
  dt *. 1e6 /. float_of_int frames

let run_campaign_kernels () =
  let smoke = options.smoke in
  (* warm the in-process minheap memo outside every timed region *)
  let config, spec = campaign_grid ~smoke in
  let scaled = Spec.scale spec config.Harness.scale in
  ignore (Minheap.find ~config:(Harness.minheap_config config) scaled);
  let fabric = bench_campaign ~smoke ~workers:(Some 4) in
  record "campaign/cells_per_sec" fabric "cells/s" Higher_is_better;
  let dist = bench_dist_campaign ~smoke ~workers:4 in
  record "campaign/dist_cells_per_sec" dist "cells/s" Higher_is_better;
  record ~tracked:false "campaign/dist_tax_vs_pipe" (fabric /. dist) "x"
    Lower_is_better;
  let serial = bench_campaign ~smoke ~workers:None in
  record ~tracked:false "campaign/serial_cells_per_sec" serial "cells/s"
    Higher_is_better

let run_wall_clock () =
  Printf.printf "wall-clock kernels (%s)\n%!" (if options.smoke then "smoke" else "full");
  let scale_steps n = if options.smoke then n / 4 else n in
  let reps = if options.smoke then 3 else 5 in
  let ev = bench_event_loop ~threads:8 ~steps:(scale_steps 120_000) ~reps in
  record "engine/events_per_sec" ev "events/s" Higher_is_better;
  let mix = bench_event_mix ~threads:6 ~steps:(scale_steps 60_000) ~reps in
  record "engine/mixed_events_per_sec" mix "events/s" Higher_is_better;
  let objects = if options.smoke then 40_000 else 160_000 in
  let rate, marked = bench_trace_rate ~objects ~reps in
  record "tracer/objects_per_sec" rate "objects/s" Higher_is_better;
  record ~tracked:false "tracer/objects_marked" (float_of_int marked) "objects"
    Higher_is_better;
  let alloc = bench_alloc ~regions:(if options.smoke then 512 else 2048) ~reps in
  record "heap/allocs_per_sec" alloc "allocs/s" Higher_is_better;
  let full = bench_full_run ~scale:0.25 ~reps:(if options.smoke then 2 else 3) in
  record "run/lusearch_3x_seconds" full "s" Lower_is_better;
  let replayed = bench_full_run_replay ~scale:0.25 ~reps:(if options.smoke then 2 else 3) in
  record "run/lusearch_3x_replay_seconds" replayed "s" Lower_is_better;
  let decisions =
    bench_tape_decisions ~passes:(if options.smoke then 4 else 16) ~reps
  in
  record "tape/decisions_per_sec" decisions "decisions/s" Higher_is_better;
  record ~tracked:false "tape/replay_draw_ns" (1e9 /. decisions) "ns/draw"
    Lower_is_better;
  let roundtrip =
    bench_frame_roundtrip ~frames:(if options.smoke then 2_000 else 10_000) ~reps
  in
  record "fabric/frame_roundtrip_us" roundtrip "us/roundtrip" Lower_is_better;
  let warm_us, fresh_us =
    bench_warm_overhead
      ~cells:(if options.smoke then 20 else 60)
      ~reps:(if options.smoke then 2 else 3)
  in
  record ~tracked:false "run/warm_cell_us" warm_us "us/cell" Lower_is_better;
  record ~tracked:false "run/fresh_cell_us" fresh_us "us/cell" Lower_is_better;
  (* untracked while the smoke gate cannot tell these from noise *)
  let pause_us, thrash_events = bench_thrash ~reps in
  record ~tracked:false "gc/thrash_pause_us" pause_us "us/pause" Lower_is_better;
  record ~tracked:false "gc/thrash_events_per_sec" thrash_events "events/s" Higher_is_better;
  run_campaign_kernels ()

(* ------------------------------------------------------------------ *)
(* Micro kernels                                                       *)
(* ------------------------------------------------------------------ *)

(* ns per call of [f]: the best of [reps] timings of [iters] calls. *)
let ns_per_call ~iters ~reps f =
  best_of reps (fun () ->
      for _ = 1 to iters do
        f ()
      done)
  *. 1e9 /. float_of_int iters

let micro_heap_push_pop () =
  let h = Binary_heap.create () in
  for i = 0 to 255 do
    Binary_heap.add h ~priority:(i * 7919 mod 1024) i
  done;
  while not (Binary_heap.is_empty h) do
    ignore (Binary_heap.pop_min_value h + Binary_heap.popped_priority h)
  done

let micro_find_live () =
  let heap = Heap.create ~capacity_words:65_536 ~region_words:256 () in
  let alloc = Allocator.create heap ~space:Region.Old in
  let ids =
    Array.init 2_000 (fun _ ->
        match Allocator.alloc alloc ~size:10 ~nfields:2 with
        | Allocator.Allocated { obj; _ } -> obj
        | Allocator.Out_of_regions -> failwith "micro table setup")
  in
  fun () ->
    let hits = ref 0 in
    Array.iter (fun id -> if Heap.is_live heap id then incr hits) ids;
    assert (!hits = Array.length ids)

let micro_alloc_fast_path () =
  let region_words = 256 in
  let heap = Heap.create ~capacity_words:(256 * region_words) ~region_words () in
  fun () ->
    let alloc = Allocator.create heap ~space:Region.Eden in
    for _ = 1 to 512 do
      match Allocator.alloc alloc ~size:8 ~nfields:2 with
      | Allocator.Allocated _ -> ()
      | Allocator.Out_of_regions -> failwith "micro alloc out of regions"
    done;
    Allocator.retire alloc;
    Heap.iter_regions
      (fun r ->
        if not (Region.space_equal r.Region.space Region.Free) then
          Heap.release_region heap r)
      heap

(* Micro kernels inform but do not gate: they are noisier than the
   wall-clock kernels. *)
let run_micro_kernels () =
  Printf.printf "\nmicro kernels (untracked)\n%!";
  let reps = if options.smoke then 3 else 5 in
  let iters n = if options.smoke then n / 4 else n in
  List.iter
    (fun (name, f, n) ->
      record ~tracked:false name (ns_per_call ~iters:(iters n) ~reps f) "ns/run"
        Lower_is_better)
    [
      ("micro/binary_heap_push_pop", micro_heap_push_pop, 4_000);
      ("micro/heap_find_live", micro_find_live (), 20_000);
      ("micro/alloc_fast_path", micro_alloc_fast_path (), 4_000);
    ]

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  let baseline = Option.map (fun file -> (file, load_baseline file)) options.baseline in
  run_wall_clock ();
  run_micro_kernels ();
  let out = match options.out with Some f -> f | None -> next_bench_file () in
  write_json out;
  Option.iter (fun (file, entries) -> compare_baseline file entries) baseline
