(* The benchmark harness: regenerates every table and figure of the paper
   from one full campaign, then runs Bechamel microbenchmarks of the
   computational kernels behind each artefact.

   Knobs (environment):
     GCR_SCALE        workload scale (default 0.25 here; 1.0 = full runs)
     GCR_INVOCATIONS  invocations per configuration (default 3 here)
     GCR_BENCHMARKS   comma-separated subset of the suite
     GCR_CACHE_DIR    on-disk result cache; re-running a campaign replays
                      already-measured configurations from disk
     GCR_SKIP_MICRO   set to skip the Bechamel section *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Harness = Gcr_core.Harness
module Report = Gcr_core.Report
module Validate = Gcr_core.Validate
module Lbo = Gcr_core.Lbo
module Stats = Gcr_util.Stats
module Histogram = Gcr_util.Histogram
module Prng = Gcr_util.Prng

let env_default name default = Option.value (Sys.getenv_opt name) ~default

let benchmarks () =
  match Sys.getenv_opt "GCR_BENCHMARKS" with
  | None -> Suite.all
  | Some names ->
      names |> String.split_on_char ',' |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map Suite.find_exn

let banner title =
  print_newline ();
  print_endline (String.make 72 '#');
  Printf.printf "## %s\n" title;
  print_endline (String.make 72 '#')

(* ------------------------------------------------------------------ *)
(* Part 1: the campaign and the paper's artefacts                      *)
(* ------------------------------------------------------------------ *)

let run_campaign () =
  let config =
    {
      (Harness.default_config ()) with
      Harness.invocations = int_of_string (env_default "GCR_INVOCATIONS" "3");
      scale = float_of_string (env_default "GCR_SCALE" "0.25");
      log_progress = true;
    }
  in
  Printf.printf "campaign: scale=%.2f invocations=%d benchmarks=%d cache=%s\n%!"
    config.Harness.scale config.Harness.invocations
    (List.length (benchmarks ()))
    (Option.value config.Harness.cache_dir ~default:"off");
  let t0 = Unix.gettimeofday () in
  let campaign =
    Harness.run_campaign config ~benchmarks:(benchmarks ()) ~gcs:Registry.production
  in
  Printf.printf "campaign completed in %.1fs\n%!" (Unix.gettimeofday () -. t0);
  campaign

let print_artefacts campaign =
  banner "Tables II-V: the LBO worked example (h2, 3.0x heap, cycles)";
  Report.worked_example campaign ();
  banner "Table VI: time LBO per collector and heap size";
  Report.table_vi campaign;
  banner "Table VII: cycle LBO per collector and heap size";
  Report.table_vii campaign;
  banner "Table VIII: per-benchmark time LBO at 3.0x";
  Report.table_viii campaign;
  banner "Table IX: per-benchmark cycle LBO at 3.0x";
  Report.table_ix campaign;
  banner "Table X: percent of time in STW pauses";
  Report.table_x campaign;
  banner "Table XI: percent of cycles in STW pauses";
  Report.table_xi campaign;
  banner "Figure 1: Serial vs G1 on lusearch (time and cycles vs heap)";
  Report.fig1 campaign;
  banner "Figure 2: G1 vs Shenandoah on lusearch (pause time, metered latency)";
  Report.fig2 campaign;
  banner "Figure 3: pause-time distribution, lusearch at 3.0x";
  Report.fig3 campaign;
  banner "Figure 4: metered-latency distribution, lusearch at 3.0x";
  Report.fig4 campaign;
  banner "Extensions: energy-metric LBO, confidence intervals, pause reasons, latency summary";
  Report.table_energy campaign;
  Report.confidence_note campaign;
  Report.pause_breakdown campaign;
  Report.latency_summary campaign;
  banner "Validation: LBO vs ground-truth overhead (simulator-only study)";
  Validate.tightness_study campaign ~factor:3.0;
  banner "Ablation: apparent-GC-cost attribution (paper Section III-C)";
  Validate.attribution_ablation campaign ()

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks — one per table/figure kernel      *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* Synthetic inputs reused across microbenchmarks. *)
let observations =
  List.init 6 (fun i ->
      {
        Lbo.collector = Printf.sprintf "gc%d" i;
        total = 100.0 +. float_of_int (i * 17 mod 23);
        apparent_gc = 3.0 +. float_of_int (i * 7 mod 11);
      })

let grid_values = Array.init 128 (fun i -> 1.0 +. (float_of_int (i mod 17) /. 20.0))

let pause_samples = Array.init 4096 (fun i -> float_of_int (100 + (i * 7919 mod 100_000)))

let latency_histogram =
  let h = Histogram.create () in
  let prng = Prng.create 99 in
  for _ = 1 to 100_000 do
    Histogram.record h (Prng.int prng 5_000_000)
  done;
  h

let tiny_run_spec =
  {
    (Suite.find_exn "h2") with
    Spec.packets_per_thread = 30;
    mutator_threads = 2;
    long_lived_target_words = 4_000;
  }

let run_tiny gc () =
  ignore
    (Run.execute (Run.default_config ~spec:tiny_run_spec ~gc ~heap_words:30_000 ~seed:5))

let micro_tests =
  [
    (* Tables II-V: one LBO computation *)
    Test.make ~name:"tables2-5/lbo-compute"
      (Staged.stage (fun () -> ignore (Lbo.compute observations)));
    (* Tables VI-VII: geometric-mean aggregation of a grid row *)
    Test.make ~name:"table6-7/geomean"
      (Staged.stage (fun () -> ignore (Stats.geomean grid_values)));
    (* Tables VIII-IX: per-benchmark aggregation (mean + CI) *)
    Test.make ~name:"table8-9/summarize"
      (Staged.stage (fun () -> ignore (Stats.summarize grid_values)));
    (* Tables X-XI: STW-fraction style reductions *)
    Test.make ~name:"table10-11/mean"
      (Staged.stage (fun () -> ignore (Stats.mean grid_values)));
    (* Figure 1: series normalisation *)
    Test.make ~name:"fig1/normalize"
      (Staged.stage (fun () ->
           let best = Stats.min grid_values in
           ignore (Array.map (fun v -> v /. best) grid_values)));
    (* Figure 2a: mean pause *)
    Test.make ~name:"fig2a/pause-mean"
      (Staged.stage (fun () -> ignore (Stats.mean pause_samples)));
    (* Figure 2b + 4: histogram tail percentile *)
    Test.make ~name:"fig2b-4/p99.99"
      (Staged.stage (fun () -> ignore (Histogram.percentile latency_histogram 99.99)));
    (* Figure 3: exact percentile over pooled pauses *)
    Test.make ~name:"fig3/percentile"
      (Staged.stage (fun () -> ignore (Stats.percentile pause_samples 99.9)));
    (* Simulator kernels: one full tiny invocation per collector *)
    Test.make ~name:"sim/serial" (Staged.stage (run_tiny Registry.Serial));
    Test.make ~name:"sim/parallel" (Staged.stage (run_tiny Registry.Parallel));
    Test.make ~name:"sim/g1" (Staged.stage (run_tiny Registry.G1));
    Test.make ~name:"sim/shenandoah" (Staged.stage (run_tiny Registry.Shenandoah));
    Test.make ~name:"sim/zgc" (Staged.stage (run_tiny Registry.Zgc));
    Test.make ~name:"sim/epsilon" (Staged.stage (run_tiny Registry.Epsilon));
  ]

let run_micro () =
  banner "Bechamel microbenchmarks (kernels behind each artefact)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %14.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n%!" name)
        analyzed)
    micro_tests

let run_genshen () =
  banner "Extension: generational Shenandoah (JEP 404, the paper's future work)";
  Validate.genshen_study ()

let run_ablations () =
  banner "Design-choice ablations (DESIGN.md section 4b)";
  Gcr_core.Ablation.all (Gcr_core.Ablation.default_config ())

let () =
  let campaign = run_campaign () in
  print_artefacts campaign;
  if Sys.getenv_opt "GCR_SKIP_ABLATIONS" = None then begin
    run_genshen ();
    run_ablations ()
  end;
  if Sys.getenv_opt "GCR_SKIP_MICRO" = None then run_micro ();
  banner "done"
