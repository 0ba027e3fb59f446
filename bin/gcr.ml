(* gcr: command-line interface to the GC real-cost reproduction.

   Subcommands mirror the repo's deliverables: run single configurations,
   measure minimum heaps, and regenerate any of the paper's tables and
   figures from a campaign. *)

open Cmdliner
module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Harness = Gcr_core.Harness
module Report = Gcr_core.Report
module Minheap = Gcr_core.Minheap
module Validate = Gcr_core.Validate
module Pool = Gcr_sched.Pool
module Result_cache = Gcr_sched.Result_cache
module Obs = Gcr_obs.Obs
module Perfetto = Gcr_obs.Perfetto
module Engine = Gcr_engine.Engine
module Tape = Gcr_tape.Tape
module Tape_gen = Gcr_workloads.Tape_gen
module Decision_source = Gcr_workloads.Decision_source
module Controller = Gcr_policy.Controller
module Market = Gcr_core.Market
module Planner = Gcr_core.Planner

(* ---------- shared argument parsing ---------- *)

(* Every failure — a bad flag or file, or a run that ended in OOM /
   degeneration / budget exhaustion — exits with this code and a reason
   on stderr, prefixed with [who]. *)
let failed_run_exit = 3

let die ?(who = "gcr") fmt =
  Printf.ksprintf
    (fun reason ->
      Printf.eprintf "%s: %s\n%!" who reason;
      exit failed_run_exit)
    fmt

let bench_conv =
  let parse s =
    match Suite.find s with
    | Some spec -> Ok spec
    | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S (see `gcr list`)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.Spec.name)

let gc_conv =
  let parse s =
    match Registry.of_name s with
    | Some kind -> Ok kind
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown collector %S (valid: %s)" s
               (String.concat ", " Registry.valid_names)))
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Registry.name k))

let benchmarks_arg =
  let doc = "Benchmarks to run (repeatable; default: the whole suite)." in
  Arg.(value & opt_all bench_conv [] & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let gcs_arg =
  let doc = "Collectors to run (repeatable; default: the whole frontier)." in
  Arg.(value & opt_all gc_conv [] & info [ "g"; "gc" ] ~docv:"GC" ~doc)

(* Grid values are checked where they are parsed, so a bad one exits 3
   before any command runs: a zero scale or factor, or no invocations,
   has no campaign cell to run. *)
let positive what x =
  if Float.is_finite x && x > 0.0 then x else die "%s must be finite and positive, got %g" what x

let invocations_arg =
  let doc = "Invocations per configuration (distinct seeds)." in
  let at_least_one n = if n >= 1 then n else die "-n must be at least 1, got %d" n in
  Term.(
    const at_least_one $ Arg.(value & opt int 5 & info [ "n"; "invocations" ] ~docv:"N" ~doc))

let scale_arg =
  let doc = "Workload scale factor (run length and machine memory together)." in
  Term.(const (positive "--scale") $ Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc))

let seed_term doc = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let seed_arg =
  seed_term
    "Base seed, in a campaign and a single run alike: min-heap searches run at \
     $(i,SEED), and invocation $(i,i) (counting from 0) at $(i,SEED) + 1000·($(i,i)+1)."

let factor_arg =
  let doc =
    "Heap size as a multiple of the benchmark's minimum heap, rounded up to whole \
     regions: the minimum a campaign at this scale and base seed sizes its heaps from \
     (G1 on the scaled machine)."
  in
  Term.(
    const (positive "the heap factor")
    $ Arg.(value & opt float 3.0 & info [ "x"; "heap-factor" ] ~docv:"F" ~doc))

let factors_arg =
  let doc =
    "Heap factors for grid experiments (comma separated; default: the twelve-point \
     grid, a superset of the paper's eight sizes)."
  in
  let factors = function
    | [] -> die "--factors needs at least one heap factor"
    | factors -> List.map (positive "every --factors entry") factors
  in
  Term.(
    const factors
    $ Arg.(
        value
        & opt (list float) Harness.default_heap_factors
        & info [ "factors" ] ~docv:"F1,F2,.." ~doc))

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let workers_arg =
  let doc =
    "Forked worker processes executing the campaign through the multi-process \
     fabric (default: $(b,GCR_WORKERS) if set, else none: the coordinator runs \
     every cell in this process).  Each worker owns a whole OCaml runtime, so \
     throughput scales with cores; campaign output is bit-identical for every \
     worker count.  $(b,-j) and $(b,--jobs) are other names for this option."
  in
  Arg.(value & opt (some int) None & info [ "w"; "workers"; "j"; "jobs" ] ~docv:"N" ~doc)

let listen_arg =
  let doc =
    "With $(b,--workers N): accept the N workers as TCP connections at \
     $(i,HOST:PORT) instead of forking them — start each with \
     $(b,gcr worker --connect HOST:PORT).  Port 0 binds an ephemeral port.  \
     Campaign output stays bit-identical to forked and to worker-less runs."
  in
  Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"HOST:PORT" ~doc)

let connect_timeout_arg =
  let doc =
    "Seconds to wait for the workers to say hello (and, with $(b,--listen), to \
     connect) before proceeding with however many arrived (the coordinator \
     backstops an empty fleet inline)."
  in
  Arg.(value & opt float 30.0 & info [ "connect-timeout" ] ~docv:"S" ~doc)

(* HOST:PORT with the port after the last ':' so bare IPv6 addresses keep
   working once resolve_addr learns about them. *)
let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 ->
          Ok ((if host = "" then "127.0.0.1" else host), p)
      | Some p -> Error (Printf.sprintf "port %d out of range" p)
      | None -> Error (Printf.sprintf "expected HOST:PORT, got %S" s))

let cache_dir_arg =
  let doc =
    "Directory for the on-disk result cache of grid cells and min-heap probes \
     (default: $(b,GCR_CACHE_DIR) if set).  Already-measured runs are replayed from \
     disk instead of re-run; without a cache nothing persists between invocations."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let exit_on_failures measurements =
  match Measurement.failure_lines measurements with
  | [] -> ()
  | lines ->
      List.iter (fun l -> Printf.eprintf "gcr: %s\n" l) lines;
      exit failed_run_exit

let write_or_die write = try write () with Sys_error msg -> die "cannot write %s" msg

(* A cell no run can execute (a heap below two regions) is refused where
   it is built, before it runs; a run outside a campaign that raises exits
   with the failure line a campaign would record for it. *)
let refuse_unrunnable f =
  try f () with Planner.Unrunnable reason | Pool.Crashed reason -> die "%s" reason

(* Output paths are checked before anything is simulated, so a bad path
   fails at once instead of after the whole run; no file is left behind. *)
let check_writable path =
  let existed = Sys.file_exists path in
  write_or_die (fun () ->
      close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path);
      if not existed then Sys.remove path)

let default_benchmarks = function [] -> Suite.all | bs -> bs

let default_gcs = function [] -> Harness.default_gcs | gs -> gs

(* Worker-count validation is strict: a typo'd GCR_WORKERS silently
   running a campaign single-process would quietly invalidate a
   throughput study, so bad values refuse to run at all. *)
let resolve_workers arg =
  let reject reason = die "invalid worker count: %s" reason in
  match arg with
  | Some n when n > 0 -> Some n
  | Some n ->
      reject
        (Printf.sprintf "--workers must be a positive integer, got %d" n)
  | None -> (
      match Sys.getenv_opt "GCR_WORKERS" with
      | None -> None
      | Some s -> (
          match int_of_string_opt s with
          | Some n when n > 0 -> Some n
          | Some n ->
              reject
                (Printf.sprintf "GCR_WORKERS must be a positive integer, got %d" n)
          | None ->
              reject
                (Printf.sprintf "GCR_WORKERS must be a positive integer, got %S" s)))

(* Controller lookup mirrors --workers strictness: a typo'd controller
   name silently falling back to Fixed would quietly turn an adaptive-
   sizing study into a static one, so bad names refuse to run at all. *)
let resolve_controller s =
  match Controller.of_name s with
  | Some c -> c
  | None ->
      die "unknown controller %S (valid: %s)" s (String.concat ", " Controller.valid_names)

let resolve_controllers = function
  | [] -> [ Controller.fixed ]
  | names -> List.map resolve_controller names

let controller_arg =
  let doc =
    Printf.sprintf
      "Heap-sizing controller driving the heap limit at safepoints (one of %s; \
       case-insensitive).  $(b,fixed) is the status quo and is bit-identical to \
       not passing this flag at all."
      (String.concat ", " Controller.valid_names)
  in
  Arg.(value & opt string "fixed" & info [ "controller" ] ~docv:"NAME" ~doc)

let controllers_arg =
  let doc =
    Printf.sprintf
      "Heap-sizing controllers multiplying the campaign grid as its innermost axis \
       (comma separated; one of %s).  The default $(b,fixed) reproduces the \
       historical grid exactly."
      (String.concat ", " Controller.valid_names)
  in
  Arg.(value & opt (list string) [ "fixed" ] & info [ "controllers" ] ~docv:"A,B" ~doc)

let resolve_cache arg =
  match (match arg with Some _ -> arg | None -> Sys.getenv_opt "GCR_CACHE_DIR") with
  | None -> None
  | Some dir -> (
      (* validate eagerly: a bad cache location should be a clean CLI
         error before the campaign starts, not a mid-run exception *)
      try Some (Result_cache.create ~dir)
      with Sys_error msg -> die "unusable cache directory: %s" msg)

let resolve_listen = function
  | None -> None
  | Some s -> (
      match parse_host_port s with
      | Ok hp -> Some hp
      | Error msg -> die "invalid --listen address: %s" msg)

let harness_config ?(controllers = [ Controller.fixed ]) ?listen
    ?(connect_timeout = 30.0) ~invocations ~scale ~seed ~factors ~quiet ~workers
    ~cache_dir () =
  let workers = resolve_workers workers in
  (match Gcr_sched.Fabric.timeout_of_env () with
  | Ok _ -> ()
  | Error reason -> die "invalid fabric timeout: %s" reason);
  let listen = resolve_listen listen in
  (match (listen, workers) with
  | Some _, None -> die "--listen requires --workers N (the fleet size)"
  | _ -> ());
  {
    (Harness.default_config ()) with
    Harness.invocations;
    scale;
    base_seed = seed;
    heap_factors = factors;
    log_progress = not quiet;
    workers;
    cache_dir = Option.map Result_cache.dir (resolve_cache cache_dir);
    controllers;
    listen;
    connect_timeout;
  }

(* ---------- list ---------- *)

let list_cmd =
  let run () =
    print_endline "Benchmarks (DaCapo Chopin analogues):";
    List.iter
      (fun s -> Format.printf "  %-12s %s@." s.Spec.name s.Spec.description)
      Suite.all;
    print_endline "";
    print_endline "Collectors:";
    List.iter
      (fun k ->
        Printf.printf "  %-12s %s%s%s\n" (Registry.name k)
          (if Registry.is_concurrent k then "concurrent" else "stop-the-world")
          (if Registry.is_generational k then ", generational" else "")
          (if List.mem k Registry.experimental then " (experimental)" else ""))
      Registry.frontier
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and collectors")
    Term.(const run $ const ())

(* ---------- tape helpers ---------- *)

let read_tape_exn path =
  match Tape.read_file path with
  | Ok tape -> tape
  | Error msg -> die "invalid tape %s: %s" path msg

(* A tape is only meaningful against the exact spec it was recorded for;
   resolve the benchmark by name and refuse a digest mismatch (usually a
   --scale that differs from the recording). *)
let tape_resolve_spec ~scale tape =
  match Suite.find tape.Tape.benchmark with
  | None -> die "tape benchmark %S is not in the suite" tape.Tape.benchmark
  | Some spec ->
      let spec = Spec.scale spec scale in
      if not (String.equal (Spec.digest spec) tape.Tape.spec_digest) then
        die
          "tape %S was recorded against a different spec (digest %s, this invocation \
           resolves to %s); pass the --scale it was recorded at"
          tape.Tape.benchmark tape.Tape.spec_digest (Spec.digest spec);
      spec

(* ---------- run ---------- *)

let execute_traced ~trace_out config =
  let captured = ref None in
  let on_engine engine =
    let obs = Engine.obs engine in
    captured := Some (obs, Obs.attach_trace obs)
  in
  (* crash-isolated like every untraced run *)
  let m = try Run.execute ~on_engine config with exn -> Pool.failed_of_exn config exn in
  (match !captured with
  | Some (obs, trace) ->
      write_or_die (fun () -> Perfetto.write_file trace_out obs trace);
      Printf.eprintf "gcr: wrote %d events to %s\n%!" (Obs.Trace.length trace) trace_out
  | None -> ());
  m

let run_cmd =
  let run benchmarks gcs factor invocations scale seed cache_dir trace_out tape_file
      controller_name =
    Option.iter check_writable trace_out;
    let gcs = default_gcs gcs in
    let controller = resolve_controller controller_name in
    let cache = resolve_cache cache_dir in
    (* every run is the cell of that name in the campaign at this scale
       and base seed *)
    let grid = { (Harness.default_config ()) with Harness.scale; base_seed = seed } in
    let minheap spec = Minheap.find ?cache ~config:(Harness.minheap_config grid) spec in
    let configs () =
      match tape_file with
      | None ->
          List.concat_map
            (fun spec ->
              let spec = Spec.scale spec scale in
              let minheap = minheap spec in
              List.concat_map
                (fun gc ->
                  List.init invocations (fun invocation ->
                      Harness.cell_config ~controller grid ~minheap spec ~gc ~factor
                        ~invocation))
                gcs)
            (default_benchmarks benchmarks)
      | Some path ->
          (* the tape pins benchmark, spec and seed; the command line picks
             collectors and heap factor *)
          let tape = read_tape_exn path in
          let spec = tape_resolve_spec ~scale tape in
          (match benchmarks with
          | [] -> ()
          | bs when List.exists (fun b -> String.equal b.Spec.name spec.Spec.name) bs ->
              ()
          | _ -> die "--tape %s replays benchmark %S; drop -b or pass it" path spec.Spec.name);
          let image = Decision_source.image_of_tape ~spec tape in
          let minheap = minheap spec in
          List.map
            (fun gc ->
              {
                (Harness.cell_config ~controller grid ~minheap spec ~gc ~factor
                   ~invocation:0)
                with
                Run.seed = tape.Tape.seed;
                tape = Run.Tape_replay image;
              })
            gcs
    in
    let configs = refuse_unrunnable configs in
    let measurements =
      match trace_out with
      | None ->
          let state = Run.new_state () in
          List.map (Pool.execute ?cache ~state) configs
      | Some file -> (
          match configs with
          | [ config ] -> [ execute_traced ~trace_out:file config ]
          | _ ->
              die
                "--trace-out records a single run; pick one benchmark and one collector \
                 with -n 1")
    in
    List.iter
      (fun m ->
        Format.printf "%a@." Measurement.pp m;
        (* only under an adaptive controller, so `--controller fixed`
           output stays byte-identical to not passing the flag at all
           (CI diffs the two) *)
        if not (Controller.is_fixed controller) then
          Printf.printf
            "  controller: %d limit moves, peak %d words, mean footprint %.0f words, \
             memory-time %.3e word-cycles\n"
            m.Measurement.limit_changes m.Measurement.heap_limit_peak_words
            (Measurement.mean_footprint_words m)
            (Measurement.memory_time_integral m))
      measurements;
    exit_on_failures measurements
  in
  let trace_out_arg =
    let doc =
      "Record the run's event stream and write a Chrome/Perfetto trace-event JSON \
       file (open at ui.perfetto.dev).  Requires a single configuration."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let tape_arg =
    let doc =
      "Replay a workload tape recorded with $(b,gcr tape record): the tape fixes the \
       benchmark, spec and seed (so -n is ignored, and $(b,--seed) seeds only the \
       min-heap search), and every requested collector runs against the identical \
       decision stream.  Results are bit-identical to live runs at the tape's seed."
    in
    Arg.(value & opt (some string) None & info [ "tape" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run benchmark/collector configurations and print measurements: each run is \
          the cell of the same name in the campaign at this scale and base seed, so it \
          prints exactly what that campaign measures")
    Term.(
      const run $ benchmarks_arg $ gcs_arg $ factor_arg $ invocations_arg $ scale_arg
      $ seed_arg $ cache_dir_arg $ trace_out_arg $ tape_arg $ controller_arg)

(* ---------- minheap ---------- *)

let minheap_cmd =
  let run benchmarks scale =
    let cache = resolve_cache None in
    let config = Harness.minheap_config { (Harness.default_config ()) with Harness.scale } in
    List.iter
      (fun spec ->
        let spec = Spec.scale spec scale in
        let words = Minheap.find ?cache ~config spec in
        Printf.printf "%-12s %8d words (%d regions)\n" spec.Spec.name words
          (words / Run.default_region_words))
      (default_benchmarks benchmarks)
  in
  Cmd.v
    (Cmd.info "minheap"
       ~doc:
         "Measure the minimum heap (with G1) for benchmarks, as the paper does: the \
          search a flagless campaign at this scale runs (base seed 1, scaled \
          machine), so it prints the minimum that campaign sizes its heaps from")
    Term.(const run $ benchmarks_arg $ scale_arg)

(* ---------- campaign-backed commands ---------- *)

let build_campaign ?controllers ?listen ?connect_timeout benchmarks gcs invocations
    scale seed factors quiet workers cache_dir =
  let config =
    harness_config ?controllers ?listen ?connect_timeout ~invocations ~scale ~seed
      ~factors ~quiet ~workers ~cache_dir ()
  in
  refuse_unrunnable (fun () ->
      Harness.run_campaign config ~benchmarks:(default_benchmarks benchmarks)
        ~gcs:(default_gcs gcs))

let artefact_names =
  [
    "tables2-5"; "table6"; "table7"; "table8"; "table9"; "table10"; "table11";
    "fig1"; "fig2"; "fig3"; "fig4"; "energy"; "pauses"; "latency"; "validation";
    "ablation"; "all";
  ]

let print_artefact campaign = function
  | "tables2-5" -> Report.worked_example campaign ()
  | "table6" -> Report.table_vi campaign
  | "table7" -> Report.table_vii campaign
  | "table8" -> Report.table_viii campaign
  | "table9" -> Report.table_ix campaign
  | "table10" -> Report.table_x campaign
  | "table11" -> Report.table_xi campaign
  | "fig1" -> Report.fig1 campaign
  | "fig2" -> Report.fig2 campaign
  | "fig3" -> Report.fig3 campaign
  | "fig4" -> Report.fig4 campaign
  | "energy" -> Report.table_energy campaign
  | "pauses" -> Report.pause_breakdown campaign
  | "latency" -> Report.latency_summary campaign
  | "validation" -> Validate.tightness_study campaign ~factor:3.0
  | "ablation" -> Validate.attribution_ablation campaign ()
  | "all" ->
      Report.all campaign;
      Validate.tightness_study campaign ~factor:3.0;
      Validate.attribution_ablation campaign ()
  | other -> Printf.eprintf "unknown artefact %S\n" other

let artefact_arg =
  let doc =
    Printf.sprintf "Artefact to regenerate: %s." (String.concat ", " artefact_names)
  in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) artefact_names))) None
    & info [] ~docv:"ARTEFACT" ~doc)

let artefact_cmd =
  let run artefact benchmarks gcs invocations scale seed factors quiet workers cache_dir =
    let campaign =
      build_campaign benchmarks gcs invocations scale seed factors quiet workers cache_dir
    in
    print_artefact campaign artefact;
    exit_on_failures (Harness.all_measurements campaign)
  in
  Cmd.v
    (Cmd.info "artefact"
       ~doc:"Run the needed campaign and regenerate a paper table or figure")
    Term.(
      const run $ artefact_arg $ benchmarks_arg $ gcs_arg $ invocations_arg $ scale_arg
      $ seed_arg $ factors_arg $ quiet_arg $ workers_arg $ cache_dir_arg)

(* Per-phase breakdown of where the campaign's wall time went.  Wall
   times partition [elapsed_s]; the executor lines partition the
   executors' time in the execute phase (each fabric worker's, or this
   process's), so "other" is what the self-time counters miss. *)
let print_profile (s : Harness.exec_summary) =
  let pct part = if s.Harness.elapsed_s > 0.0 then 100.0 *. part /. s.Harness.elapsed_s else 0.0 in
  Printf.printf "\n== campaign profile ==\n";
  Printf.printf "total       %8.2fs\n" s.Harness.elapsed_s;
  Printf.printf "  plan      %8.2fs  %5.1f%%  (minheap probes + grid planning)\n"
    s.Harness.plan_s (pct s.Harness.plan_s);
  Printf.printf "  execute   %8.2fs  %5.1f%%  (%.1f cells/s)\n" s.Harness.execute_s
    (pct s.Harness.execute_s) s.Harness.cells_per_sec;
  Printf.printf "  reduce    %8.2fs  %5.1f%%\n" s.Harness.reduce_s (pct s.Harness.reduce_s);
  let executors = max 1 s.Harness.worker_processes in
  Printf.printf "executor time (%d × execute), busy %.1f%%:\n" executors
    (100.0 *. Harness.busy_share s);
  Printf.printf "  setup     %8.2fs  (engine/heap construction or warm reset)\n"
    s.Harness.setup_s;
  Printf.printf "  tape      %8.2fs  (generate/decode)\n" s.Harness.tape_s;
  Printf.printf "  simulate  %8.2fs\n" s.Harness.simulate_s;
  Printf.printf "  other     %8.2fs  (scheduling, result cache, marshalling, idle)\n"
    (Harness.unattributed_s s)

let profile_arg =
  let doc =
    "Print a per-phase wall-time breakdown (plan / tape / execute / reduce, plus \
     setup/simulate self-time) after the campaign summary."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let campaign_cmd =
  let run benchmarks gcs invocations scale seed factors quiet workers cache_dir profile
      controller_names listen connect_timeout =
    let controllers = resolve_controllers controller_names in
    let campaign =
      build_campaign ~controllers ?listen ~connect_timeout benchmarks gcs invocations
        scale seed factors quiet workers cache_dir
    in
    print_artefact campaign "all";
    let s = Harness.summary campaign in
    if s.Harness.limit_changes > 0 then
      Printf.printf
        "\ncontroller decisions: %d heap-limit changes, peak footprint %d words, mean \
         footprint %.0f words/cell\n"
        s.Harness.limit_changes s.Harness.peak_footprint_words
        s.Harness.mean_footprint_words;
    if profile then print_profile s;
    exit_on_failures (Harness.all_measurements campaign)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the full grid and print every table and figure of the paper")
    Term.(
      const run $ benchmarks_arg $ gcs_arg $ invocations_arg $ scale_arg $ seed_arg
      $ factors_arg $ quiet_arg $ workers_arg $ cache_dir_arg $ profile_arg
      $ controllers_arg $ listen_arg $ connect_timeout_arg)

(* ---------- worker ---------- *)

let worker_cmd =
  (* exit 0 only after the coordinator's quit frame *)
  let run connect store_dir retry_for =
    let die fmt = die ~who:"gcr worker" fmt in
    let host, port =
      match parse_host_port connect with
      | Ok hp -> hp
      | Error msg -> die "invalid --connect address: %s" msg
    in
    let cache =
      match store_dir with
      | None -> None
      | Some dir -> (
          try Some (Gcr_sched.Result_cache.create ~dir)
          with Sys_error msg -> die "unusable store directory: %s" msg)
    in
    match Gcr_sched.Fabric.worker_connect ~host ~port ?cache ~retry_for () with
    | Ok () -> ()
    | Error msg -> die "%s" msg
  in
  let connect_arg =
    let doc =
      "Coordinator address — the $(i,HOST:PORT) a $(b,gcr campaign --listen) \
       coordinator is accepting on.  Refused connections are retried until \
       $(b,--retry-for) elapses, so workers can start before the coordinator."
    in
    Arg.(
      required & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
  in
  let store_arg =
    let doc =
      "Result cache directory: when the coordinator caches results (it has a \
       $(b,--cache-dir)), this worker replays already-measured cells from $(i,DIR) \
       and stores the ones it runs there.  Point co-located workers at the \
       coordinator's $(b,--cache-dir).  Without it the worker caches nothing.  \
       Either way the worker generates the workload tapes it replays."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let retry_for_arg =
    let doc =
      "Seconds to keep retrying a refused connection, and then to wait for the \
       coordinator's welcome."
    in
    Arg.(value & opt float 30.0 & info [ "retry-for" ] ~docv:"S" ~doc)
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Join a campaign coordinator over TCP and execute dealt cell groups until \
          told to quit (the cross-host half of `gcr campaign --listen`).  Exits 0 \
          only after the coordinator's quit; any other end exits 3 with a reason")
    Term.(const run $ connect_arg $ store_arg $ retry_for_arg)

(* ---------- ablations ---------- *)

let ablation_names =
  [ "gc-workers"; "tenure-age"; "shenandoah-trigger"; "conc-mark-penalty"; "genshen"; "all" ]

let ablation_cmd =
  let run name bench factor scale seed =
    let config =
      { (Gcr_core.Ablation.default_config ~bench:bench.Spec.name ()) with
        Gcr_core.Ablation.heap_factor = factor;
        scale;
        seed;
      }
    in
    refuse_unrunnable (fun () ->
        match name with
        | "gc-workers" -> Gcr_core.Ablation.gc_workers config
        | "tenure-age" -> Gcr_core.Ablation.tenure_age config
        | "shenandoah-trigger" -> Gcr_core.Ablation.shenandoah_trigger config
        | "conc-mark-penalty" -> Gcr_core.Ablation.concurrent_mark_penalty config
        | "genshen" -> Validate.genshen_study ~factor ~scale ~seed ()
        | _ -> Gcr_core.Ablation.all config)
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) ablation_names))) None
      & info [] ~docv:"STUDY"
          ~doc:
            (Printf.sprintf
               "One of %s.  $(b,genshen) compares generational Shenandoah with \
                Shenandoah on lusearch, xalan and h2, so $(b,-b) does not apply to it; \
                $(b,all) runs the other four."
               (String.concat ", " ablation_names)))
  in
  let bench_arg =
    Arg.(value & opt bench_conv (Suite.find_exn "h2") & info [ "b"; "benchmark" ] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Sweep one design knob and print how the costs move")
    Term.(const run $ name_arg $ bench_arg $ factor_arg $ scale_arg $ seed_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let run bench gc factor scale seed out check controller_name =
    match check with
    | Some file -> (
        match Perfetto.validate_file file with
        | Ok s ->
            Printf.printf
              "%s: ok (%d events, %d pause slices, %d phase slices, %d begins / %d \
               ends)\n"
              file s.Perfetto.events s.Perfetto.pause_slices s.Perfetto.phase_slices
              s.Perfetto.begins s.Perfetto.ends
        | Error msg -> die "invalid trace %s: %s" file msg)
    | None ->
        check_writable out;
        let controller = resolve_controller controller_name in
        let grid = { (Harness.default_config ()) with Harness.scale; base_seed = seed } in
        let spec = Spec.scale bench scale in
        let minheap =
          Minheap.find ?cache:(resolve_cache None) ~config:(Harness.minheap_config grid) spec
        in
        let config =
          refuse_unrunnable (fun () ->
              Harness.cell_config ~controller grid ~minheap spec ~gc ~factor ~invocation:0)
        in
        let m = execute_traced ~trace_out:out config in
        Format.printf "%a@." Measurement.pp m;
        exit_on_failures [ m ]
  in
  let bench_arg =
    Arg.(
      value
      & opt bench_conv (Suite.find_exn "h2")
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark to trace.")
  in
  let gc_arg =
    Arg.(
      value & opt gc_conv Registry.G1 & info [ "g"; "gc" ] ~docv:"GC" ~doc:"Collector.")
  in
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  let check_arg =
    let doc =
      "Validate an existing trace file (JSON syntax, balanced begin/end slices) \
       instead of running anything."
    in
    Arg.(value & opt (some string) None & info [ "check" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record one run as a Chrome/Perfetto trace, or validate a trace file.  The run \
          is invocation 0 of the campaign cell of the same name")
    Term.(
      const run $ bench_arg $ gc_arg $ factor_arg $ scale_arg $ seed_arg $ out_arg
      $ check_arg $ controller_arg)

(* ---------- market ---------- *)

let market_cmd =
  let run bench tenants gc controller_name budget_factor epoch_cycles deadline_ms scale
      seed quiet trace_out =
    let controller = resolve_controller controller_name in
    Option.iter check_writable trace_out;
    let log = if quiet then None else Some (fun s -> Printf.eprintf "%s\n%!" s) in
    let captured = ref None in
    let on_tenant_engine =
      match trace_out with
      | None -> None
      | Some _ ->
          Some
            (fun tenant engine ->
              if tenant = 0 then begin
                let obs = Engine.obs engine in
                captured := Some (obs, Obs.attach_trace obs)
              end)
    in
    let report =
      try
        Market.run ~bench ?epoch_cycles ~deadline_ms ?log ?on_tenant_engine ~tenants ~gc
          ~controller ~budget_factor ~scale ~seed ()
      with Invalid_argument msg -> die "%s" msg
    in
    (match (trace_out, !captured) with
    | Some file, Some (obs, trace) ->
        write_or_die (fun () -> Perfetto.write_file file obs trace);
        Printf.eprintf "gcr: wrote %d events (tenant 0) to %s\n%!"
          (Obs.Trace.length trace) file
    | _ -> ());
    Format.printf "%a@." Market.pp_report report;
    if List.exists (fun t -> not t.Market.completed) report.Market.per_tenant then begin
      List.iter
        (fun t ->
          if not t.Market.completed then
            Printf.eprintf "gcr: tenant %d (%s) did not complete\n" t.Market.tenant
              t.Market.bench)
        report.Market.per_tenant;
      exit failed_run_exit
    end
  in
  let bench_arg =
    let doc = "Latency-sensitive benchmark every tenant runs." in
    Arg.(
      value
      & opt (enum (List.map (fun s -> (s.Spec.name, s.Spec.name)) Suite.latency_sensitive))
          "lusearch"
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)
  in
  let tenants_arg =
    let doc = "Number of tenant runtimes sharing the machine." in
    Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let gc_arg =
    Arg.(
      value & opt gc_conv Registry.G1
      & info [ "g"; "gc" ] ~docv:"GC" ~doc:"Collector every tenant runs.")
  in
  let budget_factor_arg =
    let doc =
      "Machine-wide memory budget as a multiple of (tenants x the benchmark's \
       baseline footprint).  Below 1.0 the tenants are under-provisioned and the \
       broker has to arbitrate."
    in
    Arg.(value & opt float 1.0 & info [ "budget-factor" ] ~docv:"F" ~doc)
  in
  let epoch_arg =
    let doc = "Broker rebalancing epoch in simulated cycles." in
    Arg.(value & opt (some int) None & info [ "epoch-cycles" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc = "Request deadline in milliseconds (metered latency above it is a miss)." in
    Arg.(
      value & opt float Market.default_deadline_ms
      & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let trace_out_arg =
    let doc =
      "Write tenant 0's event stream as a Chrome/Perfetto trace-event JSON file."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "market"
       ~doc:
         "Run the multi-tenant memory market: N runtimes share one machine-wide \
          budget under a diurnal request wave, with a broker reallocating heap \
          limits every epoch")
    Term.(
      const run $ bench_arg $ tenants_arg $ gc_arg $ controller_arg $ budget_factor_arg
      $ epoch_arg $ deadline_arg $ scale_arg $ seed_term "Base random seed." $ quiet_arg
      $ trace_out_arg)

(* ---------- tape ---------- *)

let tape_file_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Tape file to read.")

let tape_record_cmd =
  let run bench scale seed out =
    check_writable out;
    (* replicate the run's PRNG split tree without simulating anything *)
    let tape = Tape_gen.generate ~spec:(Spec.scale bench scale) ~seed in
    write_or_die (fun () -> Tape.write_file tape ~path:out);
    Printf.printf "%s: %d draws, digest %s\n" out (Tape.draws tape) (Tape.digest tape)
  in
  let bench_arg =
    Arg.(
      required
      & opt (some bench_conv) None
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark to record.")
  in
  let out_arg =
    Arg.(
      value & opt string "workload.tape"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Tape file to write.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Record the workload decision stream for one (benchmark, seed)")
    Term.(
      const run $ bench_arg $ scale_arg
      $ seed_term
          "Seed to record, as given (a campaign's invocation $(i,i) runs at base seed \
           + 1000·($(i,i)+1))."
      $ out_arg)

let tape_info_cmd =
  let run file =
    let tape = read_tape_exn file in
    print_endline (Tape.info tape)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print a tape's header, stream sizes and digest")
    Term.(const run $ tape_file_pos)

let tape_verify_cmd =
  let run file scale replay_check gc factor =
    let tape = read_tape_exn file in
    Printf.printf "%s: ok (%d threads, %d draws, digest %s)\n" file
      (Array.length tape.Tape.streams)
      (Tape.draws tape) (Tape.digest tape);
    if replay_check then begin
      let spec = tape_resolve_spec ~scale tape in
      let image = Decision_source.image_of_tape ~spec tape in
      (* the heap of the default campaign's cell, run at the tape's seed *)
      let grid = { (Harness.default_config ()) with Harness.scale } in
      let minheap =
        Minheap.find ?cache:(resolve_cache None) ~config:(Harness.minheap_config grid) spec
      in
      let base =
        {
          (refuse_unrunnable (fun () ->
               Harness.cell_config grid ~minheap spec ~gc ~factor ~invocation:0))
          with
          Run.seed = tape.Tape.seed;
        }
      in
      let live = refuse_unrunnable (fun () -> Pool.execute_or_crash base) in
      let replayed =
        refuse_unrunnable (fun () ->
            Pool.execute_or_crash { base with Run.tape = Run.Tape_replay image })
      in
      let render m = Format.asprintf "%a" Measurement.pp m in
      if String.equal (render live) (render replayed) then
        Printf.printf "replay check: bit-identical to a live run under %s at %gx\n"
          (Registry.name gc) factor
      else die "replay diverged from the live run under %s at %gx" (Registry.name gc) factor
    end
  in
  let replay_check_arg =
    let doc =
      "Additionally execute the tape's configuration twice — live and replayed — \
       and fail unless the measurements are bit-identical."
    in
    Arg.(value & flag & info [ "replay-check" ] ~doc)
  in
  let gc_arg =
    Arg.(
      value & opt gc_conv Registry.G1
      & info [ "g"; "gc" ] ~docv:"GC" ~doc:"Collector for --replay-check.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Validate a tape file (magic, checksum, bounds); optionally prove replay \
             bit-identity")
    Term.(const run $ tape_file_pos $ scale_arg $ replay_check_arg $ gc_arg $ factor_arg)

let tape_cmd =
  Cmd.group
    (Cmd.info "tape"
       ~doc:"Record, inspect and verify workload tapes (record once, replay across \
             the campaign grid)")
    [ tape_record_cmd; tape_info_cmd; tape_verify_cmd ]

let main =
  let doc = "empirical lower bounds on the overheads of production garbage collectors" in
  Cmd.group
    (Cmd.info "gcr" ~version:"1.0.0" ~doc)
    [
      list_cmd; run_cmd; minheap_cmd; artefact_cmd; campaign_cmd; worker_cmd;
      ablation_cmd; trace_cmd; tape_cmd; market_cmd;
    ]

let () = exit (Cmd.eval main)
