module Machine = Gcr_mach.Machine
module Registry = Gcr_gcs.Registry
module Gc_types = Gcr_gcs.Gc_types
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement

let on_execute : (Run.config -> unit) ref = ref (fun _ -> ())

(* The measurement recorded for an invocation whose run raised: same
   labelling a completed run would have carried, all counters zero.  The
   engine's own aborts (OOM, event budget) never get here — Run.execute
   already returns those as Failed measurements with real counters. *)
let failed_of_exn (config : Run.config) exn =
  {
    Measurement.benchmark = config.Run.spec.Spec.name;
    gc = Registry.name config.Run.gc;
    heap_words =
      (match config.Run.gc with
      | Registry.Epsilon -> config.Run.machine.Machine.memory_words
      | _ -> config.Run.heap_words);
    seed = config.Run.seed;
    outcome = Measurement.Failed ("uncaught exception: " ^ Printexc.to_string exn);
    wall_total = 0;
    wall_stw = 0;
    cycles_mutator = 0;
    cycles_gc = 0;
    cycles_gc_stw = 0;
    pauses = [];
    pause_hist = Gcr_util.Histogram.create ();
    latency_metered = None;
    latency_simple = None;
    allocated_words = 0;
    allocated_objects = 0;
    gc_stats = Gc_types.no_stats;
    limit_changes = 0;
    heap_limit_peak_words = 0;
    footprint_word_cycles = 0.0;
  }

(* GCR_WARM_CHECK=1: run every warm cell a second time on fresh state and
   fail loudly on any divergence — the in-line reuse≡fresh oracle for
   bisecting a warm-state leak in the field.  Orders of magnitude slower;
   debug only. *)
let warm_check_enabled () =
  match Sys.getenv_opt "GCR_WARM_CHECK" with
  | Some ("0" | "false" | "off") | None -> false
  | Some _ -> true

let execute_fresh ?state config =
  !on_execute config;
  let run ?state () = try Run.execute ?state config with exn -> failed_of_exn config exn in
  match state with
  | Some _ when warm_check_enabled () ->
      let warm = run ?state () in
      let fresh = run () in
      if warm <> fresh then
        failwith
          (Printf.sprintf
             "GCR_WARM_CHECK: warm-state run diverged from fresh for %s/%s heap=%d seed=%d"
             config.Run.spec.Spec.name (Registry.name config.Run.gc)
             config.Run.heap_words config.Run.seed);
      warm
  | _ -> run ?state ()

let execute_cached ?cache ?state config =
  match Option.bind cache (fun c -> Result_cache.find c config) with
  | Some measurement -> (measurement, true)
  | None ->
      let measurement = execute_fresh ?state config in
      Option.iter (fun c -> Result_cache.store c config measurement) cache;
      (measurement, false)

let execute ?cache ?state config = fst (execute_cached ?cache ?state config)
