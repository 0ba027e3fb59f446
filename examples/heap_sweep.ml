(* The time-space tradeoff (paper Figure 1 / Table VI shape): sweep the
   heap size for one benchmark and watch every collector's overhead fall
   as memory grows — at different rates, so the winner changes.

     dune exec examples/heap_sweep.exe [benchmark] *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Minheap = Gcr_core.Minheap
module Harness = Gcr_core.Harness
module Metrics = Gcr_core.Metrics
module Lbo = Gcr_core.Lbo
module Tablefmt = Gcr_util.Tablefmt

let factors = [ 1.4; 1.9; 2.4; 3.0; 4.4; 6.0 ]

let collectors = Registry.production

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "pmd" in
  let grid = { (Harness.default_config ()) with Harness.scale = 0.5; base_seed = 9 } in
  let spec = Spec.scale (Suite.find_exn bench) grid.Harness.scale in
  let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
  Printf.printf "%s (scaled): minimum heap %d words\n%!" bench minheap;
  (* One invocation of every collector at every factor, plus Epsilon for
     the LBO baseline: the first invocation of the campaign at scale 0.5
     and base seed 9. *)
  let cell gc factor =
    Run.execute (Harness.cell_config grid ~minheap spec ~gc ~factor ~invocation:0)
  in
  let epsilon = cell Registry.Epsilon 0.0 in
  let sweep = List.map (fun gc -> (gc, List.map (cell gc) factors)) collectors in
  let table metric title =
    let t = Tablefmt.create ~title ~columns:(List.map (Printf.sprintf "%.1fx") factors) in
    List.iter
      (fun (gc, runs) ->
        let observations =
          epsilon :: List.concat_map (fun (_, runs) -> runs) sweep
          |> List.filter Measurement.completed
          |> List.map (fun m -> Option.get (Lbo.observation metric [ m ]))
        in
        let ideal = Lbo.ideal_estimate observations in
        let cells =
          List.map
            (fun (m : Measurement.t) ->
              if Measurement.completed m then
                Tablefmt.Num (Lbo.lbo ~ideal ~total:(Metrics.total metric m), 2)
              else Tablefmt.Missing)
            runs
        in
        Tablefmt.add_row t ~label:(Registry.name gc) cells)
      sweep;
    Tablefmt.mark_best_in_column t ~min:true;
    Tablefmt.print t
  in
  table Metrics.Wall_time "Time LBO vs heap size (lower is better; * best per size)";
  table Metrics.Cpu_cycles "Cycle LBO vs heap size (lower is better; * best per size)";
  print_endline
    "Reading: every column is the fundamental time-space tradeoff; comparing the\n\
     two tables shows collectors whose wall-clock price is paid in hidden cycles."
