(* Latency study: "low pause != low latency" (paper Section IV-D c).

   Runs the latency-sensitive lusearch benchmark under a stop-the-world
   collector (Parallel), the concurrent tracing collector (G1) and the
   low-pause collectors (Shenandoah, ZGC), then prints both the pause-time
   distribution and the metered request-latency distribution side by side.
   The low-pause collectors win the first table and can still lose the
   second — the paper's central misinterpretation warning.

     dune exec examples/latency_study.exe *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Minheap = Gcr_core.Minheap
module Harness = Gcr_core.Harness
module Stats = Gcr_util.Stats
module Histogram = Gcr_util.Histogram
module Units = Gcr_util.Units
module Tablefmt = Gcr_util.Tablefmt

let collectors = [ Registry.Parallel; Registry.G1; Registry.Shenandoah; Registry.Zgc ]

let percentiles = [ 50.0; 90.0; 99.0; 99.9 ]

let () =
  let grid = { (Harness.default_config ()) with Harness.scale = 0.5; base_seed = 7 } in
  let spec = Spec.scale (Suite.find_exn "lusearch") grid.Harness.scale in
  let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
  let cell gc = Harness.cell_config grid ~minheap spec ~gc ~factor:3.0 ~invocation:0 in
  Printf.printf "lusearch (scaled) at 3.0x minimum heap = %d words\n%!"
    (cell Registry.G1).Run.heap_words;
  let results = List.map (fun gc -> (gc, Run.execute (cell gc))) collectors in
  List.iter
    (fun (gc, m) ->
      if not (Measurement.completed m) then
        Printf.printf "note: %s failed this configuration\n" (Registry.name gc))
    results;
  (* Table 1: GC pause times — the metric GC tuning guides point at. *)
  let pause_table =
    Tablefmt.create ~title:"GC pause time (ms) -- the naive suitability metric"
      ~columns:(List.map (fun p -> Printf.sprintf "p%g" p) percentiles)
  in
  List.iter
    (fun (gc, (m : Measurement.t)) ->
      let pauses =
        Array.of_list
          (List.map
             (fun (p : Gcr_engine.Engine.pause) -> float_of_int p.duration)
             m.Measurement.pauses)
      in
      let cells =
        List.map
          (fun p ->
            if Array.length pauses = 0 then Tablefmt.Missing
            else
              Tablefmt.Num (Units.ms_of_cycles (int_of_float (Stats.percentile pauses p)), 4))
          percentiles
      in
      Tablefmt.add_row pause_table ~label:(Registry.name gc) cells)
    results;
  Tablefmt.mark_best_in_column pause_table ~min:true;
  Tablefmt.print pause_table;
  (* Table 2: metered request latency — what the application actually
     experiences. *)
  let latency_table =
    Tablefmt.create
      ~title:"Metered query latency (ms) -- what requests actually experience"
      ~columns:(List.map (fun p -> Printf.sprintf "p%g" p) percentiles)
  in
  List.iter
    (fun (gc, (m : Measurement.t)) ->
      let cells =
        match m.Measurement.latency_metered with
        | Some h when not (Histogram.is_empty h) ->
            List.map
              (fun p -> Tablefmt.Num (Units.ms_of_cycles (Histogram.percentile h p), 4))
              percentiles
        | Some _ | None -> List.map (fun _ -> Tablefmt.Missing) percentiles
      in
      Tablefmt.add_row latency_table ~label:(Registry.name gc) cells)
    results;
  Tablefmt.mark_best_in_column latency_table ~min:true;
  Tablefmt.print latency_table;
  print_endline
    "If a low-pause collector wins the first table but not the second, you have\n\
     reproduced the paper's warning: pause time is a poor proxy for application\n\
     latency once barrier costs, concurrent CPU theft and allocation stalls are\n\
     accounted for."
