(* Property tests for the engine: random thread/step workloads must
   respect conservation laws and determinism regardless of shape. *)

module Engine = Gcr_engine.Engine
module Prng = Gcr_util.Prng

(* A random scenario: n threads, each a list of steps; a step is either
   work (cycles) or a stall. *)
type step = Work of int | Sleep of int

type scenario = {
  cpus : int;
  threads : step list list;
}

let scenario_gen =
  QCheck.Gen.(
    let step =
      frequency
        [ (4, map (fun c -> Work c) (int_range 0 500)); (1, map (fun c -> Sleep c) (int_range 1 300)) ]
    in
    let thread = list_size (int_range 1 12) step in
    map2
      (fun cpus threads -> { cpus; threads })
      (int_range 1 6)
      (list_size (int_range 1 8) thread))

let print_scenario s =
  Printf.sprintf "cpus=%d threads=%s" s.cpus
    (String.concat ";"
       (List.map
          (fun steps ->
            String.concat ","
              (List.map (function Work c -> string_of_int c | Sleep c -> "s" ^ string_of_int c) steps))
          s.threads))

let scenario_arb = QCheck.make ~print:print_scenario scenario_gen

(* Run a scenario; returns (wall, total_cycles, per-thread cycles). *)
let run_scenario s =
  let engine = Engine.create ~cpus:s.cpus () in
  let spawn i steps =
    let th = Engine.spawn engine ~kind:Engine.Mutator ~name:(string_of_int i) in
    let rec drive remaining () =
      match remaining with
      | [] -> Engine.exit_thread engine th
      | Work c :: rest -> Engine.submit engine th ~cycles:c (drive rest)
      | Sleep c :: rest -> Engine.stall engine th ~cycles:c (drive rest)
    in
    drive steps ()
  in
  List.iteri spawn s.threads;
  match Engine.run engine () with
  | Engine.All_mutators_finished ->
      (Engine.now engine, Engine.cycles_of_kind engine Engine.Mutator)
  | Engine.Aborted reason -> failwith reason

let work_of s =
  List.fold_left
    (fun acc steps ->
      acc
      + List.fold_left (fun a -> function Work c -> a + c | Sleep _ -> a) 0 steps)
    0 s.threads

let span_of_thread steps =
  List.fold_left (fun a -> function Work c | Sleep c -> a + c) 0 steps

let prop_cycles_conserved =
  QCheck.Test.make ~name:"total cycles equal submitted work" ~count:300 scenario_arb
    (fun s ->
      let _, cycles = run_scenario s in
      cycles = work_of s)

let prop_wall_bounds =
  QCheck.Test.make ~name:"wall between critical path and serialisation" ~count:300
    scenario_arb (fun s ->
      let wall, _ = run_scenario s in
      (* lower bound: no thread can finish faster than its own span;
         upper bound: all work serialised on one cpu plus all sleeps *)
      let longest = List.fold_left (fun a t -> max a (span_of_thread t)) 0 s.threads in
      let total_span = List.fold_left (fun a t -> a + span_of_thread t) 0 s.threads in
      wall >= longest && wall <= total_span)

let prop_utilisation =
  QCheck.Test.make ~name:"cycles never exceed cpus x wall" ~count:300 scenario_arb
    (fun s ->
      let wall, cycles = run_scenario s in
      cycles <= s.cpus * max 1 wall || (cycles = 0 && wall = 0))

let prop_deterministic =
  QCheck.Test.make ~name:"identical scenarios give identical runs" ~count:100 scenario_arb
    (fun s -> run_scenario s = run_scenario s)

(* The engine's event queue (FIFO lane plus heap) against a sorted-list
   model of (time, seq) entries, seq being the add order, under random
   add/pop schedules.  About half the adds are due at the current time, so
   lane entries meet heap entries of the same time throughout. *)
type queue_op = Add of int  (** due this many cycles after now *) | Pop

let queue_ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun d -> Add d) (frequency [ (1, return 0); (1, int_range 1 4) ]));
          (1, return Pop);
        ])
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat " " (List.map (function Add d -> "+" ^ string_of_int d | Pop -> "pop") ops))
    QCheck.Gen.(list_size (int_range 0 120) op)

let prop_queue_matches_model =
  QCheck.Test.make ~name:"event queue pops in (time, seq) order" ~count:1000 queue_ops_arb
    (fun ops ->
      let module Q = Gcr_engine.Event_queue in
      let q = Q.create () in
      let model = ref [] and next_seq = ref 0 in
      let rec insert e = function
        | [] -> [ e ]
        | x :: rest -> if e < x then e :: x :: rest else x :: insert e rest
      in
      List.for_all
        (function
          | Add d ->
              let time = Q.now q + d and seq = !next_seq in
              incr next_seq;
              Q.add q ~time seq;
              model := insert (time, seq) !model;
              Q.next_time q = fst (List.hd !model)
          | Pop -> (
              match !model with
              | [] -> Q.is_empty q
              | (time, seq) :: rest ->
                  model := rest;
                  let popped = Q.pop q in
                  popped = seq && Q.now q = time))
        ops)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_cycles_conserved;
    QCheck_alcotest.to_alcotest prop_wall_bounds;
    QCheck_alcotest.to_alcotest prop_utilisation;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_queue_matches_model;
  ]
