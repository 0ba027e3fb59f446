(* Quickstart: run one benchmark under every collector and compute its
   lower-bound overheads — the whole public API in thirty lines.

     dune exec examples/quickstart.exe *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Minheap = Gcr_core.Minheap
module Harness = Gcr_core.Harness
module Metrics = Gcr_core.Metrics
module Lbo = Gcr_core.Lbo

let () =
  (* A scaled-down h2 so the example runs in a couple of seconds: each run
     is a cell of the campaign at scale 0.3 and base seed 42. *)
  let grid = { (Harness.default_config ()) with Harness.scale = 0.3; base_seed = 42 } in
  let spec = Spec.scale (Suite.find_exn "h2") grid.Harness.scale in
  Printf.printf "workload: %s\n" (Format.asprintf "%a" Spec.pp spec);
  (* The paper sizes heaps relative to the minimum heap, measured with G1. *)
  let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
  let cell gc = Harness.cell_config grid ~minheap spec ~gc ~factor:3.0 ~invocation:0 in
  Printf.printf "minimum heap (G1): %d words; running at 3.0x = %d words\n\n" minheap
    (cell Registry.G1).Run.heap_words;
  (* One invocation per collector; Epsilon included as the no-op baseline. *)
  let measurements = List.map (fun gc -> Run.execute (cell gc)) Registry.all in
  List.iter (fun m -> Format.printf "%a@." Measurement.pp m) measurements;
  (* The LBO methodology: estimate the ideal cost from the cheapest
     non-GC portion of any collector's run, then bound each overhead. *)
  print_newline ();
  List.iter
    (fun metric ->
      let observations = List.filter_map (fun m -> Lbo.observation metric [ m ]) measurements in
      Printf.printf "%s lower-bound overheads:\n" (Metrics.name metric);
      List.iter
        (fun (o, lbo) -> Printf.printf "  %-12s %.3f\n" o.Lbo.collector lbo)
        (Lbo.compute observations))
    [ Metrics.Wall_time; Metrics.Cpu_cycles ]
