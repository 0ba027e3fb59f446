(* Opportunity cost: the paper's Section IV-D a.

   A collector that looks fast because it parallelises its pauses is
   spending cycles some other tenant could have used.  This example runs
   the same benchmark on a dedicated 16-CPU machine and on a slice of 4
   CPUs (a multi-tenant host), for Serial (frugal in cycles) and Parallel
   (frugal in wall time).  On the big machine Parallel wins wall-clock; on
   the small slice its cycle hunger turns into wall-clock pain.

     dune exec examples/multi_tenant.exe *)

module Registry = Gcr_gcs.Registry
module Machine = Gcr_mach.Machine
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Minheap = Gcr_core.Minheap
module Harness = Gcr_core.Harness
module Units = Gcr_util.Units

let () =
  (* A parallel benchmark with enough threads to keep a big machine busy;
     each run is the 2.0x cell of the campaign at scale 0.5 and base seed
     3, on a machine of [cpus] CPUs. *)
  let grid = { (Harness.default_config ()) with Harness.scale = 0.5; base_seed = 3 } in
  let spec = Spec.scale (Suite.find_exn "sunflow") grid.Harness.scale in
  let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
  let run ~gc ~cpus =
    let config = Harness.cell_config grid ~minheap spec ~gc ~factor:2.0 ~invocation:0 in
    Run.execute { config with Run.machine = Machine.with_cpus config.Run.machine cpus }
  in
  Printf.printf "sunflow (scaled) at 2.0x minimum heap, %d mutator threads\n\n"
    spec.Spec.mutator_threads;
  Printf.printf "%-10s %6s %14s %16s %12s\n" "collector" "cpus" "wall (ms)"
    "total Gcycles" "GC Mcycles";
  List.iter
    (fun cpus ->
      List.iter
        (fun gc ->
          let m = run ~gc ~cpus in
          let status = if Measurement.completed m then "" else "  (failed)" in
          Printf.printf "%-10s %6d %14.2f %16.3f %12.1f%s\n"
            (Registry.name gc) cpus
            (Units.ms_of_cycles m.Measurement.wall_total)
            (float_of_int (Measurement.cycles_total m) /. 1e9)
            (float_of_int m.Measurement.cycles_gc /. 1e6)
            status)
        [ Registry.Serial; Registry.Parallel ];
      print_newline ())
    [ 16; 4 ];
  print_endline
    "Reading: on 16 CPUs, Parallel's extra GC cycles hide in idle hardware and it\n\
     beats Serial on wall-clock time.  On a 4-CPU slice there is no idle hardware\n\
     to hide in: every extra GC cycle displaces mutator work, and the gap narrows\n\
     or reverses — the opportunity cost the wall-clock-only methodology misses."
