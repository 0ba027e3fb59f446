module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Stats = Gcr_util.Stats
module Tablefmt = Gcr_util.Tablefmt

type tightness_row = {
  benchmark : string;
  collector : string;
  lbo : float;
  true_overhead : float;
}

(* Ground truth: one ideal run per (benchmark, seed) of the campaign,
   for every benchmark whose ideal completes at every seed.  The others
   drop out: even the ideal cannot run within machine memory there (e.g.
   xalan, whose total allocation exceeds it — exactly the benchmarks
   where the paper could not use Epsilon either). *)
let ideal_runs campaign =
  let config = Harness.config_of campaign in
  let machine = Harness.scaled_machine config in
  let seeds =
    List.init config.Harness.invocations (fun invocation ->
        Planner.seed_of ~base_seed:config.Harness.base_seed ~invocation)
  in
  List.filter_map
    (fun spec ->
      let runs = List.map (fun seed -> Run.execute_ideal ~spec ~machine ~seed) seeds in
      if List.for_all Measurement.completed runs then Some (spec, runs) else None)
    (Harness.benchmarks campaign)

let rows_of_ideals campaign ideals ~metric ~factor =
  let gcs =
    List.filter (fun g -> g <> Registry.Epsilon) (Harness.gcs campaign)
  in
  List.concat_map
    (fun ((spec : Spec.t), runs) ->
      let bench = spec.Spec.name in
      (* the mean ideal cost over the campaign's seeds *)
      let ideal_true = Stats.mean (Array.of_list (List.map (Metrics.total metric) runs)) in
      List.filter_map
        (fun gc ->
          match
            ( Harness.lbo_value campaign metric ~bench ~gc ~factor,
              Lbo.observation metric (Harness.runs campaign ~bench ~gc ~factor) )
          with
          | Some lbo, Some o ->
              Some
                {
                  benchmark = bench;
                  collector = Registry.name gc;
                  lbo;
                  true_overhead = o.Lbo.total /. ideal_true;
                }
          | _, _ -> None)
        gcs)
    ideals

let tightness_rows campaign ~metric ~factor =
  rows_of_ideals campaign (ideal_runs campaign) ~metric ~factor

let tightness_study campaign ~factor =
  let ideals = ideal_runs campaign in
  List.iter
    (fun metric ->
      let rows = rows_of_ideals campaign ideals ~metric ~factor in
      let table =
        Tablefmt.create
          ~title:
            (Printf.sprintf
               "VALIDATION -- LBO vs ground-truth overhead (%s, %.1fx heap): LBO must \
                not exceed the true overhead"
               (Metrics.name metric) factor)
          ~columns:[ "LBO"; "True overhead"; "Tightness %"; "Bound holds" ]
      in
      List.iter
        (fun r ->
          Tablefmt.add_row table
            ~label:(r.benchmark ^ "/" ^ r.collector)
            [
              Tablefmt.Num (r.lbo, 3);
              Tablefmt.Num (r.true_overhead, 3);
              Tablefmt.Num (100.0 *. (r.lbo -. 1.0) /. Float.max 1e-9 (r.true_overhead -. 1.0), 1);
              Tablefmt.Text (if r.lbo <= r.true_overhead +. 1e-9 then "yes" else "VIOLATED");
            ])
        rows;
      Tablefmt.print table)
    [ Metrics.Wall_time; Metrics.Cpu_cycles ]

(* Cycle observation with the naive attribution: only cycles inside pause
   windows count as GC. *)
let naive_observation runs =
  match runs with
  | [] -> None
  | runs when not (List.for_all Measurement.completed runs) -> None
  | runs ->
      let n = float_of_int (List.length runs) in
      let sum f = List.fold_left (fun acc m -> acc +. f m) 0.0 runs in
      Some
        {
          Lbo.collector = (List.hd runs).Measurement.gc;
          total = sum (fun m -> float_of_int (Measurement.cycles_total m)) /. n;
          apparent_gc =
            sum (fun m -> float_of_int (Measurement.cycles_gc_pause_window m)) /. n;
        }

let attribution_ablation campaign ?(bench = "h2") ?(factor = 3.0) () =
  (* The LBO of a collector depends only on the ideal estimate (the
     minimum "other" cost over the collector set).  With stop-the-world
     collectors in the set, both attributions coincide on the minimum, so
     — as §III-C warns — the effect of sloppy attribution shows when the
     estimate must come from concurrent collectors alone.  We therefore
     estimate the ideal from {Shenandoah, ZGC} only. *)
  let conc = [ Registry.Shenandoah; Registry.Zgc ] in
  let conc = List.filter (fun g -> List.mem g (Harness.gcs campaign)) conc in
  let runs gc = Harness.runs campaign ~bench ~gc ~factor in
  let refined = List.filter_map (fun gc -> Lbo.observation Metrics.Cpu_cycles (runs gc)) conc in
  let naive = List.filter_map (fun gc -> naive_observation (runs gc)) conc in
  if refined = [] || naive = [] then
    print_endline "attribution ablation: no completed concurrent collectors"
  else begin
    let ideal_refined = Lbo.ideal_estimate refined in
    let ideal_naive = Lbo.ideal_estimate naive in
    let table =
      Tablefmt.create
        ~title:
          (Printf.sprintf
             "ABLATION -- apparent-GC-cost attribution on %s at %.1fx, with only the \
              concurrent collectors in the set (cycle LBO): counting just pause-window \
              cycles as GC grossly loosens the bound; per-GC-thread attribution \
              (paper Section III-C) tightens it"
             bench factor)
        ~columns:[ "LBO (pause-window)"; "LBO (per-GC-thread)" ]
    in
    List.iter2
      (fun (n : Lbo.observation) (r : Lbo.observation) ->
        Tablefmt.add_row table ~label:r.Lbo.collector
          [
            Tablefmt.Num (Lbo.lbo ~ideal:ideal_naive ~total:n.Lbo.total, 3);
            Tablefmt.Num (Lbo.lbo ~ideal:ideal_refined ~total:r.Lbo.total, 3);
          ])
      naive refined;
    Tablefmt.print table
  end

let genshen_study ?(benches = [ "lusearch"; "xalan"; "h2" ]) ?(factor = 3.0) ?(scale = 0.5)
    ?(seed = 11) () =
  let module Suite = Gcr_workloads.Suite in
  let module Units = Gcr_util.Units in
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "EXTENSION -- generational Shenandoah (JEP 404, the paper's flagged future \
            work) vs the paper's Shenandoah at %.1fx heap: young scavenges spare the \
            concurrent pipeline from re-copying the whole live set"
           factor)
      ~columns:[ "wall ms"; "GC Mcycles"; "stalls"; "pauses"; "full GCs" ]
  in
  let grid = { (Harness.default_config ()) with Harness.scale; base_seed = seed } in
  List.iter
    (fun bench ->
      let spec = Spec.scale (Suite.find_exn bench) scale in
      let minheap = Minheap.find ~config:(Harness.minheap_config grid) spec in
      List.iter
        (fun gc ->
          let m =
            Gcr_sched.Pool.execute_or_crash
              (Harness.cell_config grid ~minheap spec ~gc ~factor ~invocation:0)
          in
          let label = Printf.sprintf "%s/%s" bench (Registry.name gc) in
          if Measurement.completed m then
            Tablefmt.add_row table ~label
              [
                Tablefmt.Num (Units.ms_of_cycles m.Measurement.wall_total, 2);
                Tablefmt.Num (float_of_int m.Measurement.cycles_gc /. 1e6, 1);
                Tablefmt.Num (float_of_int m.Measurement.gc_stats.Gcr_gcs.Gc_types.stalls, 0);
                Tablefmt.Num (float_of_int (Measurement.pause_count m), 0);
                Tablefmt.Num
                  (float_of_int m.Measurement.gc_stats.Gcr_gcs.Gc_types.full_collections, 0);
              ]
          else
            Tablefmt.add_row table ~label
              (Tablefmt.Text "failed" :: List.init 4 (fun _ -> Tablefmt.Missing)))
        [ Registry.Shenandoah; Registry.Shenandoah_gen ])
    benches;
  Tablefmt.print table
