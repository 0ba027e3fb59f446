(* Ablation studies: the sweeps run, and the tradeoffs they exist to show
   actually appear in the numbers. *)

module Registry = Gcr_gcs.Registry
module Stw_gen = Gcr_gcs.Stw_gen
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Ablation = Gcr_core.Ablation

let check = Alcotest.check

(* The worker-count tradeoff, asserted directly (the printing wrappers are
   exercised via the CLI and bench). *)
let test_worker_tradeoff () =
  let spec = Spec.scale (Suite.find_exn "h2") 0.15 in
  let run workers =
    let make ctx =
      Stw_gen.make ctx { Stw_gen.name = "Parallel"; stw_workers = workers; tenure_age = 2 }
    in
    Run.execute
      {
        (Run.default_config ~spec ~gc:Registry.Parallel ~heap_words:160_000 ~seed:5) with
        Run.make_collector = Some make;
      }
  in
  let one = run 1 and many = run 8 in
  check Alcotest.bool "both complete" true
    (Measurement.completed one && Measurement.completed many);
  check Alcotest.bool "more workers, shorter pauses" true
    (many.Measurement.wall_stw < one.Measurement.wall_stw);
  check Alcotest.bool "more workers, more cycles" true
    (many.Measurement.cycles_gc > one.Measurement.cycles_gc)

let test_tenure_extremes_complete () =
  let spec = Spec.scale (Suite.find_exn "h2") 0.1 in
  List.iter
    (fun age ->
      let make ctx =
        Stw_gen.make ctx { Stw_gen.name = "Serial"; stw_workers = 1; tenure_age = age }
      in
      let m =
        Run.execute
          {
            (Run.default_config ~spec ~gc:Registry.Serial ~heap_words:160_000 ~seed:6) with
            Run.make_collector = Some make;
          }
      in
      check Alcotest.bool (Printf.sprintf "tenure %d completes" age) true
        (Measurement.completed m))
    [ 0; 15 ]

let test_default_config () =
  let c = Ablation.default_config () in
  check Alcotest.string "default bench" "h2" c.Ablation.spec.Spec.name;
  let c = Ablation.default_config ~bench:"jme" () in
  check Alcotest.string "chosen bench" "jme" c.Ablation.spec.Spec.name

(* An ablation point runs outside a campaign's crash isolation: a
   simulator exception must come out as [Pool.Crashed] with the failure
   line a campaign would record (benchmark, collector, heap words, seed),
   which the CLI prints before exiting 3. *)
let test_crash_names_the_cell () =
  let config =
    { (Ablation.default_config ~bench:"jme" ()) with Ablation.scale = 0.01; seed = 5 }
  in
  let make_collector _ = failwith "collector exploded" in
  match Ablation.execute ~make_collector ~gc:Registry.G1 config with
  | _ -> Alcotest.fail "a raising collector yielded a measurement"
  | exception Gcr_sched.Pool.Crashed line ->
      let expected_prefix = "jme/G1 heap=" in
      check Alcotest.string "names the benchmark and collector" expected_prefix
        (String.sub line 0 (String.length expected_prefix));
      let expected_suffix =
        " seed=1005 failed: uncaught exception: Failure(\"collector exploded\")"
      in
      let n = String.length expected_suffix in
      check Alcotest.string "names the seed and the exception" expected_suffix
        (String.sub line (String.length line - n) n)

let suite =
  [
    Alcotest.test_case "worker tradeoff" `Quick test_worker_tradeoff;
    Alcotest.test_case "tenure extremes complete" `Quick test_tenure_extremes_complete;
    Alcotest.test_case "default config" `Quick test_default_config;
    Alcotest.test_case "a crashing point names its cell" `Quick test_crash_names_the_cell;
  ]
