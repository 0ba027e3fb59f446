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

let execute_fresh ?state config =
  !on_execute config;
  try Run.execute ?state config with exn -> failed_of_exn config exn

(* The key is rendered once per cell: a miss stores under the key its
   lookup used. *)
let execute_cached ?cache ?state config =
  match Option.bind cache (fun c -> Option.map (fun k -> (c, k)) (Result_cache.key config)) with
  | None -> (execute_fresh ?state config, false)
  | Some (cache, key) -> (
      match Result_cache.find cache key with
      | Some measurement -> (measurement, true)
      | None ->
          let measurement = execute_fresh ?state config in
          Result_cache.store cache key measurement;
          (measurement, false))

let execute ?cache ?state config = fst (execute_cached ?cache ?state config)
