(* Harness campaigns, minheap search, report generation, validation — one
   shared tiny campaign keeps the cost manageable. *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Harness = Gcr_core.Harness
module Metrics = Gcr_core.Metrics
module Lbo = Gcr_core.Lbo
module Minheap = Gcr_core.Minheap
module Report = Gcr_core.Report
module Validate = Gcr_core.Validate
module Pool = Gcr_sched.Pool

let check = Alcotest.check

let config =
  {
    (Harness.default_config ()) with
    Harness.invocations = 2;
    scale = 0.1;
    heap_factors = [ 1.9; 3.0 ];
    log_progress = false;
  }

let benchmarks = [ Suite.find_exn "h2" ]

let campaign =
  lazy (Harness.run_campaign config ~benchmarks ~gcs:Registry.production)

let test_cells_populated () =
  let c = Lazy.force campaign in
  List.iter
    (fun gc ->
      List.iter
        (fun factor ->
          let runs = Harness.runs c ~bench:"h2" ~gc ~factor in
          check Alcotest.int
            (Printf.sprintf "invocations for %s@%g" (Registry.name gc) factor)
            2 (List.length runs))
        config.Harness.heap_factors)
    Registry.production

let test_epsilon_included () =
  let c = Lazy.force campaign in
  let runs = Harness.runs c ~bench:"h2" ~gc:Registry.Epsilon ~factor:3.0 in
  check Alcotest.int "epsilon runs" 2 (List.length runs);
  List.iter
    (fun (m : Measurement.t) ->
      check Alcotest.int "epsilon never pauses" 0 (Measurement.pause_count m))
    runs

let test_minheap_recorded () =
  let c = Lazy.force campaign in
  let words = Harness.minheap_words c ~bench:"h2" in
  check Alcotest.bool "minheap positive" true (words > 0);
  (* heap words actually used = factor x minheap, rounded to regions *)
  let runs = Harness.runs c ~bench:"h2" ~gc:Registry.Serial ~factor:3.0 in
  List.iter
    (fun (m : Measurement.t) ->
      check Alcotest.bool "heap close to 3x minheap" true
        (abs (m.Measurement.heap_words - (3 * words)) <= 2 * 256))
    runs

let test_observations_and_lbo () =
  let c = Lazy.force campaign in
  let observations = Harness.observations c Metrics.Cpu_cycles ~bench:"h2" ~factor:3.0 in
  check Alcotest.bool "several collectors observed" true (List.length observations >= 3);
  let ideal = Option.get (Harness.ideal c Metrics.Cpu_cycles ~bench:"h2" ~factor:3.0) in
  check Alcotest.bool "ideal positive" true (ideal > 0.0);
  List.iter
    (fun gc ->
      match Harness.lbo_value c Metrics.Cpu_cycles ~bench:"h2" ~gc ~factor:3.0 with
      | Some v -> check Alcotest.bool (Registry.name gc ^ " lbo >= 1") true (v >= 1.0)
      | None -> ())
    Registry.production

let test_lbo_geomean () =
  let c = Lazy.force campaign in
  match
    Harness.lbo_geomean c Metrics.Cpu_cycles ~benches:[ "h2" ] ~gc:Registry.Serial ~factor:3.0
  with
  | Some v -> check Alcotest.bool "geomean sane" true (v >= 1.0 && v < 10.0)
  | None -> Alcotest.fail "expected geomean"

let test_geomean_empty_benches () =
  (* regression: used to raise Invalid_argument from Stats.geomean *)
  let c = Lazy.force campaign in
  check Alcotest.bool "empty bench list yields None, not an exception" true
    (Harness.lbo_geomean c Metrics.Cpu_cycles ~benches:[] ~gc:Registry.Serial ~factor:3.0
    = None)

let test_geomean_blank_on_missing () =
  let c = Lazy.force campaign in
  check Alcotest.bool "missing bench blanks the mean" true
    (Harness.lbo_geomean c Metrics.Cpu_cycles ~benches:[ "h2"; "not-run" ]
       ~gc:Registry.Serial ~factor:3.0
    = None)

let test_larger_heap_cheaper () =
  (* The fundamental time-space tradeoff must be visible. *)
  let c = Lazy.force campaign in
  match
    ( Harness.lbo_value c Metrics.Cpu_cycles ~bench:"h2" ~gc:Registry.Serial ~factor:1.9,
      Harness.lbo_value c Metrics.Cpu_cycles ~bench:"h2" ~gc:Registry.Serial ~factor:3.0 )
  with
  | Some small, Some large ->
      check Alcotest.bool "overhead shrinks with heap" true (large <= small +. 0.02)
  | _ -> Alcotest.fail "missing values"

let with_stdout_captured f =
  (* The report prints to stdout; just make sure generators run without
     raising and produce output. *)
  let buffer = Filename.temp_file "gcr_report" ".txt" in
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile buffer [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in buffer in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove buffer;
  s

let contains haystack needle =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_generators_run () =
  let c = Lazy.force campaign in
  let out =
    with_stdout_captured (fun () ->
        Report.table_vi c;
        Report.table_vii c;
        Report.table_viii c;
        Report.table_ix c;
        Report.table_x c;
        Report.table_xi c;
        Report.worked_example c ~bench:"h2" ~factor:3.0 ())
  in
  List.iter
    (fun needle -> check Alcotest.bool ("output has " ^ needle) true (contains out needle))
    [ "TABLE VI"; "TABLE VII"; "TABLE VIII"; "TABLE IX"; "TABLE X"; "TABLE XI"; "TABLE II" ]

(* xalan is excluded from the summaries, so Tables X and XI average over no
   benchmark at all: every cell is blank. *)
let test_stw_tables_with_no_core_benchmark () =
  let c =
    Harness.run_campaign
      { config with Harness.invocations = 1; scale = 0.05; heap_factors = [ 3.0 ] }
      ~benchmarks:[ Suite.find_exn "xalan" ]
      ~gcs:[ Registry.Serial ]
  in
  let out =
    with_stdout_captured (fun () ->
        Report.table_x c;
        Report.table_xi c)
  in
  List.iter
    (fun needle -> check Alcotest.bool ("output has " ^ needle) true (contains out needle))
    [ "TABLE X "; "TABLE XI "; "Ser." ]

let test_validation_bound_holds () =
  let c = Lazy.force campaign in
  List.iter
    (fun metric ->
      let rows = Validate.tightness_rows c ~metric ~factor:3.0 in
      check Alcotest.bool "has rows" true (rows <> []);
      List.iter
        (fun (r : Validate.tightness_row) ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s bound holds (%s)" r.Validate.benchmark r.Validate.collector
               (Metrics.name metric))
            true
            (r.Validate.lbo <= r.Validate.true_overhead +. 1e-6))
        rows)
    [ Metrics.Wall_time; Metrics.Cpu_cycles ]

let test_minheap_properties () =
  Minheap.clear_memo ();
  let spec = Spec.scale (Suite.find_exn "jme") 0.1 in
  let mh = Harness.minheap_config config in
  let words = Minheap.find ~config:mh spec in
  check Alcotest.bool "positive" true (words > 0);
  check Alcotest.int "region multiple" 0 (words mod 256);
  (* completes at the found size, on the machine and seed of the search *)
  let m =
    Run.execute
      {
        (Run.default_config ~spec ~gc:Registry.G1 ~heap_words:words ~seed:mh.Minheap.seed) with
        Run.machine = mh.Minheap.machine;
      }
  in
  check Alcotest.bool "completes at minheap" true (Measurement.completed m);
  (* memoised *)
  let again = Minheap.find ~config:mh spec in
  check Alcotest.int "memoised" words again

(* A single run is a campaign cell: the config [gcr run] builds for (h2,
   collector, factor, invocation) — a fresh search with the campaign's
   min-heap config, then the campaign's cell builder — measures exactly
   what the shared campaign recorded for that cell, on a heap of whole
   regions. *)
let test_single_runs_are_campaign_cells () =
  let c = Lazy.force campaign in
  Minheap.clear_memo ();
  let spec = Spec.scale (Suite.find_exn "h2") config.Harness.scale in
  let minheap = Minheap.find ~config:(Harness.minheap_config config) spec in
  check Alcotest.int "the campaign's min-heap" (Harness.minheap_words c ~bench:"h2") minheap;
  let render m = Format.asprintf "%a" Measurement.pp m in
  List.iter
    (fun gc ->
      List.iter
        (fun factor ->
          let recorded = Harness.runs c ~bench:"h2" ~gc ~factor in
          check Alcotest.int "every invocation recorded" config.Harness.invocations
            (List.length recorded);
          List.iteri
            (fun invocation (cell : Measurement.t) ->
              let single =
                Pool.execute (Harness.cell_config config ~minheap spec ~gc ~factor ~invocation)
              in
              let what = Printf.sprintf "%s@%g #%d" (Registry.name gc) factor invocation in
              check Alcotest.string (what ^ " equals the campaign cell") (render cell)
                (render single);
              check Alcotest.int (what ^ " heap is whole regions") 0
                (single.Measurement.heap_words mod config.Harness.region_words))
            recorded)
        config.Harness.heap_factors)
    [ Registry.G1; Registry.Serial ]

(* The memo key must cover every field that can move the answer, including
   cost-model fields and spec fields past the first few a structural hash
   reads.  The seed is one no search uses, so the recorded answer cannot
   leak into other tests. *)
let test_minheap_key_covers_every_field () =
  Minheap.clear_memo ();
  let spec = Spec.scale (Suite.find_exn "jme") 0.1 in
  let config = { (Harness.minheap_config config) with Minheap.seed = 90_017 } in
  Minheap.record config spec 4096;
  check (Alcotest.option Alcotest.int) "same config hits" (Some 4096)
    (Minheap.find_cached config spec);
  let cost =
    {
      config.Minheap.cost with
      Gcr_mach.Cost_model.compact_per_word =
        config.Minheap.cost.Gcr_mach.Cost_model.compact_per_word + 1;
    }
  in
  check (Alcotest.option Alcotest.int) "compact_per_word misses" None
    (Minheap.find_cached { config with Minheap.cost } spec);
  check (Alcotest.option Alcotest.int) "spec write rate misses" None
    (Minheap.find_cached config
       { spec with Spec.writes_per_packet = spec.Spec.writes_per_packet + 1 })

(* A search keeps its answer in the in-process memo and its probes in the
   caller's cache, if any: nothing lands in the working directory.  The
   seed is one no other search uses, so the search really runs. *)
let test_minheap_search_writes_nothing () =
  let dir = Filename.temp_dir "gcr-minheap-cwd" "" in
  let cwd = Sys.getcwd () in
  let spec = Spec.scale (Suite.find_exn "h2") 0.02 in
  let config = { (Harness.minheap_config config) with Minheap.seed = 90_023 } in
  Sys.chdir dir;
  let words =
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () -> Minheap.find ~config spec)
  in
  check Alcotest.bool "search found a heap" true (words > 0);
  check (Alcotest.list Alcotest.string) "working directory untouched" []
    (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir

(* Tapes only save work: with them off every probe and cell derives its
   decision stream live from the PRNG, and the campaign must not move.
   The memo is cleared before each campaign, so both runs search. *)
let test_campaign_tapes_off_identical () =
  let run tapes =
    Minheap.clear_memo ();
    Harness.run_campaign
      {
        (Harness.default_config ()) with
        Harness.invocations = 2;
        scale = 0.05;
        log_progress = false;
        tapes;
      }
      ~benchmarks:[ Suite.find_exn "lusearch"; Suite.find_exn "jme" ]
      ~gcs:[ Registry.G1; Registry.Serial ]
  in
  let taped = run true in
  let live = run false in
  List.iter
    (fun bench ->
      check Alcotest.int (bench ^ " minheap")
        (Harness.minheap_words taped ~bench)
        (Harness.minheap_words live ~bench))
    [ "lusearch"; "jme" ];
  check Alcotest.bool "measurements identical" true
    (Harness.all_measurements taped = Harness.all_measurements live)

let suite =
  [
    Alcotest.test_case "cells populated" `Quick test_cells_populated;
    Alcotest.test_case "epsilon included" `Quick test_epsilon_included;
    Alcotest.test_case "minheap recorded" `Quick test_minheap_recorded;
    Alcotest.test_case "observations and lbo" `Quick test_observations_and_lbo;
    Alcotest.test_case "lbo geomean" `Quick test_lbo_geomean;
    Alcotest.test_case "geomean blank on missing" `Quick test_geomean_blank_on_missing;
    Alcotest.test_case "geomean empty benches" `Quick test_geomean_empty_benches;
    Alcotest.test_case "larger heap cheaper" `Quick test_larger_heap_cheaper;
    Alcotest.test_case "report generators run" `Quick test_report_generators_run;
    Alcotest.test_case "STW tables with no core benchmark" `Quick
      test_stw_tables_with_no_core_benchmark;
    Alcotest.test_case "validation bound holds" `Quick test_validation_bound_holds;
    Alcotest.test_case "minheap properties" `Quick test_minheap_properties;
    Alcotest.test_case "single runs are campaign cells" `Quick
      test_single_runs_are_campaign_cells;
    Alcotest.test_case "minheap key covers every field" `Quick
      test_minheap_key_covers_every_field;
    Alcotest.test_case "minheap search writes nothing in its working directory" `Quick
      test_minheap_search_writes_nothing;
    Alcotest.test_case "campaign with tapes off is identical" `Quick
      test_campaign_tapes_off_identical;
  ]
