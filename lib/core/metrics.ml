module Measurement = Gcr_runtime.Measurement

type t = Wall_time | Cpu_cycles | Energy


let name = function
  | Wall_time -> "wall-clock time"
  | Cpu_cycles -> "CPU cycles"
  | Energy -> "energy"

(* Static (idle) power per CPU relative to an active cycle. *)
let idle_cost_per_cycle = 0.15

let machine_cpus = 16
(* energy model assumes the default machine *)

let energy_total (m : Measurement.t) =
  let active = float_of_int (Measurement.cycles_total m) in
  let idle = (float_of_int (m.Measurement.wall_total * machine_cpus)) -. active in
  active +. (idle_cost_per_cycle *. Float.max 0.0 idle)

let total metric (m : Measurement.t) =
  match metric with
  | Wall_time -> float_of_int m.Measurement.wall_total
  | Cpu_cycles -> float_of_int (Measurement.cycles_total m)
  | Energy -> energy_total m

let apparent_gc metric (m : Measurement.t) =
  match metric with
  | Wall_time -> float_of_int m.Measurement.wall_stw
  | Cpu_cycles -> float_of_int (Measurement.cycles_gc_apparent m)
  | Energy ->
      (* GC-thread cycles plus the idle energy of the pause windows. *)
      float_of_int (Measurement.cycles_gc_apparent m)
      +. (idle_cost_per_cycle
         *. float_of_int (m.Measurement.wall_stw * machine_cpus))

let other metric m = total metric m -. apparent_gc metric m
