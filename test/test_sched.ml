(* Crash isolation: one crashing invocation never takes the campaign
   down with it.  (Serial vs parallel campaign equivalence lives in
   [test/test_fabric.ml].) *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Pool = Gcr_sched.Pool

let check = Alcotest.check

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let boom_collector _ctx = failwith "boom: injected collector failure"

let test_crash_isolation () =
  let spec = Spec.scale (Suite.find_exn "jme") 0.1 in
  let ok seed = Run.default_config ~spec ~gc:Registry.Serial ~heap_words:40_000 ~seed in
  let boom =
    { (ok 2) with Run.gc = Registry.G1; make_collector = Some boom_collector }
  in
  (* one warm state through the crash, as the campaign executors run *)
  let state = Run.new_state () in
  match List.map (Pool.execute ~state) [ ok 1; boom; ok 3; ok 4 ] with
  | [ a; b; c; d ] ->
      check Alcotest.bool "run 1 completed" true (Measurement.completed a);
      check Alcotest.bool "run 3 completed" true (Measurement.completed c);
      check Alcotest.bool "run 4 completed" true (Measurement.completed d);
      (match b.Measurement.outcome with
      | Measurement.Failed reason ->
          check Alcotest.bool "failure names the exception" true (contains reason "boom")
      | Measurement.Completed -> Alcotest.fail "crashing run reported Completed");
      (* the surviving runs are exactly what fresh, crash-free runs of the
         same configs produce *)
      check Alcotest.bool "survivors unaffected by the crash" true
        ([ a; c; d ] = List.map Run.execute [ ok 1; ok 3; ok 4 ])
  | _ -> Alcotest.fail "expected four results"

let suite = [ Alcotest.test_case "crash isolation" `Quick test_crash_isolation ]
