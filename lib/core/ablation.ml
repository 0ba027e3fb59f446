module Registry = Gcr_gcs.Registry
module Stw_gen = Gcr_gcs.Stw_gen
module Shenandoah = Gcr_gcs.Shenandoah
module Gc_types = Gcr_gcs.Gc_types
module Cost_model = Gcr_mach.Cost_model
module Machine = Gcr_mach.Machine
module Spec = Gcr_workloads.Spec
module Suite = Gcr_workloads.Suite
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Tablefmt = Gcr_util.Tablefmt
module Units = Gcr_util.Units

type config = {
  spec : Spec.t;
  heap_factor : float;
  seed : int;
  scale : float;
}

let default_config ?(bench = "h2") () =
  { spec = Suite.find_exn bench; heap_factor = 3.0; seed = 11; scale = 0.3 }

(* Every sweep point is the campaign cell (spec, gc, heap factor,
   invocation 0) at [scale] and base seed [seed], with one knob moved. *)
let execute ?make_collector ?(cost = Cost_model.default) ~gc config =
  let grid =
    { (Harness.default_config ()) with Harness.scale = config.scale; base_seed = config.seed }
  in
  let spec = Spec.scale config.spec config.scale in
  let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
  let cell =
    Harness.cell_config grid ~minheap spec ~gc ~factor:config.heap_factor ~invocation:0
  in
  Gcr_sched.Pool.execute_or_crash { cell with Run.cost; make_collector }

let row_of_measurement (m : Measurement.t) =
  match m.Measurement.outcome with
  | Measurement.Failed _ -> List.init 4 (fun _ -> Tablefmt.Missing)
  | Measurement.Completed ->
      [
        Tablefmt.Num (Units.ms_of_cycles m.Measurement.wall_total, 2);
        Tablefmt.Num (Units.ms_of_cycles m.Measurement.wall_stw, 3);
        Tablefmt.Num (float_of_int m.Measurement.cycles_gc /. 1e6, 1);
        Tablefmt.Num (float_of_int (Measurement.pause_count m), 0);
      ]

let measurement_columns = [ "wall ms"; "STW ms"; "GC Mcycles"; "pauses" ]

let gc_workers config =
  let cpus = Machine.default.Machine.cpus in
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "ABLATION gc-workers -- %s at %.1fx: STW worker count trades pause time for \
            cycles (dispatch, termination, imbalance)"
           config.spec.Spec.name config.heap_factor)
      ~columns:measurement_columns
  in
  List.iter
    (fun workers ->
      let make ctx =
        Stw_gen.make ctx { Stw_gen.name = "Parallel"; stw_workers = workers; tenure_age = 2 }
      in
      let m = execute ~make_collector:make ~gc:Registry.Parallel config in
      Tablefmt.add_row table ~label:(Printf.sprintf "%2d workers" workers)
        (row_of_measurement m))
    (List.filter (fun w -> w <= cpus) [ 1; 2; 4; 8; 13; 16 ]);
  Tablefmt.print table

let tenure_age config =
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "ABLATION tenure-age -- %s at %.1fx: tenure too early fills old space, too \
            late re-copies survivors"
           config.spec.Spec.name config.heap_factor)
      ~columns:("copied Kwords" :: "full GCs" :: measurement_columns)
  in
  List.iter
    (fun age ->
      let make ctx =
        Stw_gen.make ctx { Stw_gen.name = "Serial"; stw_workers = 1; tenure_age = age }
      in
      let m = execute ~make_collector:make ~gc:Registry.Serial config in
      let stats = m.Measurement.gc_stats in
      Tablefmt.add_row table ~label:(Printf.sprintf "age %2d" age)
        (Tablefmt.Num (float_of_int stats.Gc_types.words_copied /. 1e3, 1)
         :: Tablefmt.Num (float_of_int stats.Gc_types.full_collections, 0)
         :: row_of_measurement m))
    [ 0; 1; 2; 4; 8; 15 ];
  Tablefmt.print table

let shenandoah_trigger config =
  let cpus = Machine.default.Machine.cpus in
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "ABLATION shenandoah-trigger -- %s at %.1fx: late triggers save concurrent \
            CPU but risk degeneration and pacing"
           config.spec.Spec.name config.heap_factor)
      ~columns:("stalls" :: "degen+full" :: measurement_columns)
  in
  List.iter
    (fun trigger ->
      let make ctx =
        Shenandoah.make ctx
          { (Shenandoah.default_config ~cpus) with Shenandoah.trigger_free_fraction = trigger }
      in
      let m = execute ~make_collector:make ~gc:Registry.Shenandoah config in
      let stats = m.Measurement.gc_stats in
      Tablefmt.add_row table
        ~label:(Printf.sprintf "free < %.0f%%" (trigger *. 100.0))
        (Tablefmt.Num (float_of_int stats.Gc_types.stalls, 0)
         :: Tablefmt.Num (float_of_int stats.Gc_types.full_collections, 0)
         :: row_of_measurement m))
    [ 0.15; 0.25; 0.40; 0.55; 0.70 ];
  Tablefmt.print table

let concurrent_mark_penalty config =
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "ABLATION concurrent-mark-penalty -- %s at %.1fx: sensitivity of Shenandoah's \
            cost to the concurrent-marking calibration constant"
           config.spec.Spec.name config.heap_factor)
      ~columns:measurement_columns
  in
  List.iter
    (fun pct ->
      let cost = { Cost_model.default with Cost_model.concurrent_mark_penalty_pct = pct } in
      let m = execute ~cost ~gc:Registry.Shenandoah config in
      Tablefmt.add_row table ~label:(Printf.sprintf "+%3d%%" pct) (row_of_measurement m))
    [ 0; 50; 100; 200 ];
  Tablefmt.print table

let all config =
  gc_workers config;
  tenure_age config;
  shenandoah_trigger config;
  concurrent_mark_penalty config
