(* The memory·time cost of a heap limit: does an adaptive controller
   beat the best fixed heap you could have picked in hindsight?

   A fixed limit pays for its headroom all run long; an adaptive
   controller (membalancer's square-root rule, monk's dead-band trading)
   only rents the memory the current phase needs.  The scalar under
   comparison is the memory·time integral (word·cycles) — the same
   footprint-over-time product cloud billing charges for.

     dune exec examples/controller_study.exe [benchmark] *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Minheap = Gcr_core.Minheap
module Harness = Gcr_core.Harness
module Controller = Gcr_policy.Controller
module Units = Gcr_util.Units

let fixed_factors = [ 1.4; 2.0; 3.0; 4.0; 6.0 ]

(* Adaptive controllers start from the same generous limit the cautious
   operator would pick; what they do with it is the experiment. *)
let start_factor = 2.0

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "jme" in
  let gc = Registry.G1 in
  (* every run is a cell of the campaign at scale 0.5 and base seed 9 *)
  let grid = { (Harness.default_config ()) with Harness.scale = 0.5; base_seed = 9 } in
  let spec = Spec.scale (Suite.find_exn bench) grid.Harness.scale in
  let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
  Printf.printf "%s (scaled) under %s: minimum heap %d words\n\n" bench
    (Registry.name gc) minheap;
  let run ~factor ~controller =
    Run.execute (Harness.cell_config ~controller grid ~minheap spec ~gc ~factor ~invocation:0)
  in
  let line label (m : Measurement.t) =
    Printf.printf "%-18s %10.2f %12.0f %12.0f %8d %14.3e%s\n" label
      (Units.ms_of_cycles m.Measurement.wall_total)
      (Measurement.mean_footprint_words m)
      (float_of_int m.Measurement.heap_limit_peak_words)
      m.Measurement.limit_changes
      (Measurement.memory_time_integral m)
      (if Measurement.completed m then "" else "  (failed)")
  in
  Printf.printf "%-18s %10s %12s %12s %8s %14s\n" "limit policy" "wall (ms)"
    "mean words" "peak words" "moves" "memory-time";
  let fixed_runs =
    List.map
      (fun factor ->
        let m = run ~factor ~controller:Controller.fixed in
        line (Printf.sprintf "fixed %.1fx" factor) m;
        m)
      fixed_factors
  in
  let adaptive =
    List.map
      (fun controller ->
        let m = run ~factor:start_factor ~controller in
        line
          (Printf.sprintf "%s (from %.1fx)" (Controller.name controller) start_factor)
          m;
        m)
      [ Controller.membalancer; Controller.monk ]
  in
  (* rent-weight sensitivity around the default (4096): cheaper rent
     buys more headroom, dearer rent hugs the live set *)
  List.iter
    (fun tuning ->
      let c = Controller.Membalancer { tuning; min_period = Controller.default_min_period } in
      let m = run ~factor:start_factor ~controller:c in
      line (Printf.sprintf "mb tuning=%.0f" tuning) m)
    [ 1024.; 16384.; 65536. ];
  let mt m = Measurement.memory_time_integral m in
  let best_fixed =
    List.fold_left
      (fun acc m -> if Measurement.completed m && mt m < mt acc then m else acc)
      (List.hd fixed_runs) (List.tl fixed_runs)
  in
  print_newline ();
  List.iteri
    (fun i m ->
      if Measurement.completed m then
        Printf.printf "%-12s memory-time vs best fixed (%.3e): %.2fx at %+.1f%% wall\n"
          (Controller.name (List.nth [ Controller.membalancer; Controller.monk ] i))
          (mt best_fixed) (mt m /. mt best_fixed)
          (100.0
          *. (float_of_int m.Measurement.wall_total
              /. float_of_int best_fixed.Measurement.wall_total
             -. 1.0)))
    adaptive;
  print_endline
    "\nReading: every fixed row pays for its full limit all run long, so the\n\
     memory-time bill is the limit times the wall clock; the adaptive rows\n\
     rent headroom only while the allocation rate demands it, shrinking\n\
     toward the live set in quiet phases.  Below 1.00x the controller beat\n\
     the best constant limit chosen in hindsight."
