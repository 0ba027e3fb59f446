module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Measurement = Gcr_runtime.Measurement
module Stats = Gcr_util.Stats
module Tablefmt = Gcr_util.Tablefmt
module Histogram = Gcr_util.Histogram
module Units = Gcr_util.Units

let default_factor = 3.0

let core_bench_names campaign =
  Harness.benchmarks campaign
  |> List.map (fun s -> s.Spec.name)
  |> List.filter (fun n -> n <> "eclipse" && n <> "xalan")

let production_gcs campaign =
  List.filter (fun g -> g <> Registry.Epsilon) (Harness.gcs campaign)

let short_name = function
  | Registry.Epsilon -> "Eps."
  | Registry.Serial -> "Ser."
  | Registry.Parallel -> "Par."
  | Registry.G1 -> "G1"
  | Registry.Shenandoah -> "Shen."
  | Registry.Zgc -> "ZGC"
  | Registry.Shenandoah_gen -> "GenSh."
  | Registry.Lxr -> "LXR"
  | Registry.Serial_pretenure -> "SerPT"

let factor_label f = Printf.sprintf "%.1fx" f

let opt_cell places = function
  | Some v -> Tablefmt.Num (v, places)
  | None -> Tablefmt.Missing

(* ---------- Tables II-V: the worked example ---------- *)

let worked_example campaign ?(bench = "h2") ?(factor = default_factor) () =
  let metric = Metrics.Cpu_cycles in
  let gcs = [ Registry.Parallel; Registry.Serial; Registry.Shenandoah ] in
  let observations =
    List.filter_map
      (fun gc -> Lbo.observation metric (Harness.runs campaign ~bench ~gc ~factor))
      gcs
  in
  if observations = [] then
    print_endline "worked example: no collector completed this configuration"
  else begin
    let to_g v = v /. 1e9 in
    let t2 =
      Tablefmt.create
        ~title:
          (Printf.sprintf
             "TABLE II -- total CPU cycles, %s at %s heap (Gcycles, lower is better)" bench
             (factor_label factor))
        ~columns:[ "Total"; "Normalized to best" ]
    in
    let best_total =
      List.fold_left (fun acc o -> Float.min acc o.Lbo.total) Float.infinity observations
    in
    List.iter
      (fun o ->
        Tablefmt.add_row t2 ~label:o.Lbo.collector
          [ Tablefmt.Num (to_g o.Lbo.total, 2); Tablefmt.Num (o.Lbo.total /. best_total, 3) ])
      observations;
    Tablefmt.print t2;
    let t3 =
      Tablefmt.create
        ~title:
          "TABLE III -- attribution: cycles in STW pauses vs other (Gcycles; best other \
           bounds the ideal)"
        ~columns:[ "STW"; "Other"; "Total" ]
    in
    List.iter
      (fun o ->
        Tablefmt.add_row t3 ~label:o.Lbo.collector
          [
            Tablefmt.Num (to_g o.Lbo.apparent_gc, 2);
            Tablefmt.Num (to_g (Lbo.other_cost o), 2);
            Tablefmt.Num (to_g o.Lbo.total, 2);
          ])
      observations;
    Tablefmt.print t3;
    let ideal = Lbo.ideal_estimate observations in
    let t4 =
      Tablefmt.create
        ~title:
          (Printf.sprintf
             "TABLE IV -- LBO: total / best other (ideal estimate = %.2f Gcycles)"
             (to_g ideal))
        ~columns:[ "Total"; "LBO" ]
    in
    List.iter
      (fun o ->
        Tablefmt.add_row t4 ~label:o.Lbo.collector
          [
            Tablefmt.Num (to_g o.Lbo.total, 2);
            Tablefmt.Num (Lbo.lbo ~ideal ~total:o.Lbo.total, 3);
          ])
      observations;
    Tablefmt.print t4;
    (* Table V: an illustrative cheaper collector tightens every bound. *)
    let hypo_other = 0.95 *. ideal in
    let hypo_total = hypo_other *. 1.095 in
    let hypothetical =
      { Lbo.collector = "Hypothetical"; total = hypo_total; apparent_gc = hypo_total -. hypo_other }
    in
    let refined = observations @ [ hypothetical ] in
    let ideal' = Lbo.ideal_estimate refined in
    let t5 =
      Tablefmt.create
        ~title:
          "TABLE V -- refinement: a collector with cheaper other cycles tightens all LBOs"
        ~columns:[ "Other"; "Total"; "LBO" ]
    in
    List.iter
      (fun o ->
        Tablefmt.add_row t5 ~label:o.Lbo.collector
          [
            Tablefmt.Num (to_g (Lbo.other_cost o), 2);
            Tablefmt.Num (to_g o.Lbo.total, 2);
            Tablefmt.Num (Lbo.lbo ~ideal:ideal' ~total:o.Lbo.total, 3);
          ])
      refined;
    Tablefmt.print t5
  end

(* ---------- Tables VI/VII: LBO grids ---------- *)

let lbo_grid campaign metric ~title =
  let benches = core_bench_names campaign in
  let factors = (Harness.config_of campaign).Harness.heap_factors in
  let table = Tablefmt.create ~title ~columns:(List.map factor_label factors) in
  List.iter
    (fun gc ->
      let cells =
        List.map
          (fun factor ->
            opt_cell 2 (Harness.lbo_geomean campaign metric ~benches ~gc ~factor))
          factors
      in
      Tablefmt.add_row table ~label:(short_name gc) cells)
    (production_gcs campaign);
  Tablefmt.mark_best_in_column table ~min:true;
  Tablefmt.print table

let table_vi campaign =
  lbo_grid campaign Metrics.Wall_time
    ~title:
      "TABLE VI -- LBO total TIME overhead, geomean over core benchmarks (lower is \
       better; * = best per heap size; blank = cannot run all benchmarks)"

let table_vii campaign =
  lbo_grid campaign Metrics.Cpu_cycles
    ~title:
      "TABLE VII -- LBO total CYCLE overhead, geomean over core benchmarks (lower is \
       better; * = best per heap size; blank = cannot run all benchmarks)"

(* ---------- Tables VIII/IX: per-benchmark at 3.0x ---------- *)

let per_benchmark campaign metric ~factor ~title =
  let gcs = production_gcs campaign in
  let table = Tablefmt.create ~title ~columns:(List.map short_name gcs) in
  let summary : (Registry.kind, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let all_names = List.map (fun s -> s.Spec.name) (Harness.benchmarks campaign) in
  let core = core_bench_names campaign in
  List.iter
    (fun bench ->
      let values =
        List.map (fun gc -> Harness.lbo_value campaign metric ~bench ~gc ~factor) gcs
      in
      let in_summary = List.mem bench core in
      if in_summary then
        List.iter2
          (fun gc v ->
            match v with
            | None -> ()
            | Some v ->
                let cell =
                  match Hashtbl.find_opt summary gc with
                  | Some c -> c
                  | None ->
                      let c = ref [] in
                      Hashtbl.replace summary gc c;
                      c
                in
                cell := v :: !cell)
          gcs values;
      let label = if in_summary then bench else "(" ^ bench ^ ")" in
      Tablefmt.add_row table ~label (List.map (opt_cell 3) values))
    all_names;
  Tablefmt.add_separator table;
  let stat name f =
    let cells =
      List.map
        (fun gc ->
          match Hashtbl.find_opt summary gc with
          | Some c when !c <> [] -> Tablefmt.Num (f (Array.of_list !c), 3)
          | Some _ | None -> Tablefmt.Missing)
        gcs
    in
    Tablefmt.add_row table ~label:name cells
  in
  stat "min" Stats.min;
  stat "max" Stats.max;
  stat "mean" Stats.mean;
  stat "geomean" Stats.geomean;
  Tablefmt.mark_best_in_row table ~min:true;
  Tablefmt.print table

let table_viii ?(factor = default_factor) campaign =
  per_benchmark campaign Metrics.Wall_time ~factor
    ~title:
      (Printf.sprintf
         "TABLE VIII -- total TIME overhead (LBO) per benchmark at %s heap (lower is \
          better; parenthesised rows excluded from summaries; blank = failed)"
         (factor_label factor))

let table_ix ?(factor = default_factor) campaign =
  per_benchmark campaign Metrics.Cpu_cycles ~factor
    ~title:
      (Printf.sprintf
         "TABLE IX -- total CYCLE overhead (LBO) per benchmark at %s heap (lower is \
          better; parenthesised rows excluded from summaries; blank = failed)"
         (factor_label factor))

(* ---------- Tables X/XI: STW fractions ---------- *)

let stw_grid campaign ~title ~fraction =
  let benches = core_bench_names campaign in
  let factors = (Harness.config_of campaign).Harness.heap_factors in
  let table = Tablefmt.create ~title ~columns:(List.map factor_label factors) in
  List.iter
    (fun gc ->
      let cells =
        List.map
          (fun factor ->
            let per_bench =
              List.map
                (fun bench ->
                  let runs = Harness.runs campaign ~bench ~gc ~factor in
                  if runs = [] || not (List.for_all Measurement.completed runs) then None
                  else
                    Some
                      (Stats.mean
                         (Array.of_list (List.map fraction runs))))
                benches
            in
            (* blank, as in Tables VI-IX, when a benchmark is missing or
               every benchmark is excluded from the summaries *)
            if per_bench = [] || List.exists Option.is_none per_bench then Tablefmt.Missing
            else
              let values = Array.of_list (List.filter_map Fun.id per_bench) in
              Tablefmt.Num (100.0 *. Stats.mean values, 1))
          factors
      in
      Tablefmt.add_row table ~label:(short_name gc) cells)
    (production_gcs campaign);
  Tablefmt.mark_best_in_column table ~min:true;
  Tablefmt.print table

let table_x campaign =
  stw_grid campaign ~fraction:Measurement.stw_time_fraction
    ~title:
      "TABLE X -- percent of TIME spent in STW pauses, mean over core benchmarks \
       (lower is better)"

let table_xi campaign =
  stw_grid campaign ~fraction:Measurement.stw_cycle_fraction
    ~title:
      "TABLE XI -- percent of CYCLES spent in STW pauses, mean over core benchmarks \
       (lower is better)"

(* ---------- Figures ---------- *)

let mean_metric campaign metric ~bench ~gc ~factor =
  match Lbo.observation metric (Harness.runs campaign ~bench ~gc ~factor) with
  | Some o -> Some o.Lbo.total
  | None -> None

(* Fig 1: two series, normalised to the best point of either series. *)
let fig1 ?(bench = "lusearch") campaign =
  let factors = (Harness.config_of campaign).Harness.heap_factors in
  let series metric =
    List.map
      (fun gc ->
        ( gc,
          List.map (fun factor -> mean_metric campaign metric ~bench ~gc ~factor) factors ))
      [ Registry.Serial; Registry.G1 ]
  in
  let print_sub ~title metric =
    let data = series metric in
    let best =
      List.fold_left
        (fun acc (_, points) ->
          List.fold_left
            (fun acc p -> match p with Some v -> Float.min acc v | None -> acc)
            acc points)
        Float.infinity data
    in
    let table =
      Tablefmt.create ~title ~columns:(List.map factor_label factors)
    in
    List.iter
      (fun (gc, points) ->
        Tablefmt.add_row table ~label:(short_name gc)
          (List.map (fun p -> opt_cell 3 (Option.map (fun v -> v /. best) p)) points))
      data;
    Tablefmt.print table
  in
  print_sub
    ~title:
      (Printf.sprintf
         "FIGURE 1a -- %s: total wall-clock time vs heap size, normalized to best (lower \
          is better)"
         bench)
    Metrics.Wall_time;
  print_sub
    ~title:
      (Printf.sprintf
         "FIGURE 1b -- %s: total CPU cycles vs heap size, normalized to best (lower is \
          better)"
         bench)
    Metrics.Cpu_cycles

let pooled_pauses campaign ~bench ~gc ~factor =
  Harness.runs campaign ~bench ~gc ~factor
  |> List.concat_map (fun (m : Measurement.t) ->
         List.map (fun (p : Gcr_engine.Engine.pause) -> p.duration) m.Measurement.pauses)

let pooled_latency campaign ~bench ~gc ~factor =
  let merged = Histogram.create () in
  List.iter
    (fun (m : Measurement.t) ->
      match m.Measurement.latency_metered with
      | Some h -> Histogram.merge_into ~dst:merged h
      | None -> ())
    (Harness.runs campaign ~bench ~gc ~factor);
  merged

let fig2 ?(bench = "lusearch") campaign =
  let factors = (Harness.config_of campaign).Harness.heap_factors in
  let gcs = [ Registry.G1; Registry.Shenandoah ] in
  let t2a =
    Tablefmt.create
      ~title:
        (Printf.sprintf "FIGURE 2a -- %s: mean time (ms) per GC pause (lower is better)"
           bench)
      ~columns:(List.map factor_label factors)
  in
  List.iter
    (fun gc ->
      let cells =
        List.map
          (fun factor ->
            match pooled_pauses campaign ~bench ~gc ~factor with
            | [] -> Tablefmt.Missing
            | pauses ->
                let mean = Stats.mean (Array.of_list (List.map float_of_int pauses)) in
                Tablefmt.Num (Units.ms_of_cycles (int_of_float mean), 4))
          factors
      in
      Tablefmt.add_row t2a ~label:(short_name gc) cells)
    gcs;
  Tablefmt.print t2a;
  let t2b =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "FIGURE 2b -- %s: 99.99th percentile metered query latency (ms, lower is \
            better)"
           bench)
      ~columns:(List.map factor_label factors)
  in
  List.iter
    (fun gc ->
      let cells =
        List.map
          (fun factor ->
            let h = pooled_latency campaign ~bench ~gc ~factor in
            if Histogram.is_empty h then Tablefmt.Missing
            else Tablefmt.Num (Units.ms_of_cycles (Histogram.percentile h 99.99), 4))
          factors
      in
      Tablefmt.add_row t2b ~label:(short_name gc) cells)
    gcs;
  Tablefmt.print t2b

let distribution_percentiles = [ 50.0; 75.0; 90.0; 95.0; 99.0; 99.9; 99.99; 100.0 ]

let fig3 ?(bench = "lusearch") ?(factor = default_factor) campaign =
  let gcs = production_gcs campaign in
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "FIGURE 3 -- %s at %s heap: GC pause time (ms) at percentiles (lower is \
            better)"
           bench (factor_label factor))
      ~columns:(List.map short_name gcs)
  in
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun gc ->
            match pooled_pauses campaign ~bench ~gc ~factor with
            | [] -> Tablefmt.Missing
            | pauses ->
                let arr = Array.of_list (List.map float_of_int pauses) in
                Tablefmt.Num (Units.ms_of_cycles (int_of_float (Stats.percentile arr p)), 4))
          gcs
      in
      Tablefmt.add_row table ~label:(Printf.sprintf "p%g" p) cells)
    distribution_percentiles;
  Tablefmt.print table

let fig4 ?(bench = "lusearch") ?(factor = default_factor) campaign =
  let gcs = production_gcs campaign in
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "FIGURE 4 -- %s at %s heap: metered query latency (ms) at percentiles (lower \
            is better)"
           bench (factor_label factor))
      ~columns:(List.map short_name gcs)
  in
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun gc ->
            let h = pooled_latency campaign ~bench ~gc ~factor in
            if Histogram.is_empty h then Tablefmt.Missing
            else Tablefmt.Num (Units.ms_of_cycles (Histogram.percentile h p), 4))
          gcs
      in
      Tablefmt.add_row table ~label:(Printf.sprintf "p%g" p) cells)
    distribution_percentiles;
  Tablefmt.print table

(* ---------- extensions beyond the paper's artefacts ---------- *)

let table_energy ?(factor = default_factor) campaign =
  let gcs = production_gcs campaign in
  let table =
    Tablefmt.create
      ~title:
        (Printf.sprintf
           "EXTENSION -- LBO under the ENERGY metric at %s heap (active cycles + 0.15 \
            static per idle CPU-cycle; the additional metric of paper Section IV-E)"
           (factor_label factor))
      ~columns:(List.map short_name gcs)
  in
  List.iter
    (fun bench ->
      let cells =
        List.map
          (fun gc ->
            opt_cell 3 (Harness.lbo_value campaign Metrics.Energy ~bench ~gc ~factor))
          gcs
      in
      Tablefmt.add_row table ~label:bench cells)
    (core_bench_names campaign);
  Tablefmt.mark_best_in_row table ~min:true;
  Tablefmt.print table

let confidence_note ?(factor = default_factor) campaign =
  let gcs = production_gcs campaign in
  List.iter
    (fun metric ->
      let worst = ref 0.0 in
      let samples = ref 0 in
      List.iter
        (fun bench ->
          match Harness.ideal campaign metric ~bench ~factor with
          | None -> ()
          | Some ideal ->
              List.iter
                (fun gc ->
                    let runs = Harness.runs campaign ~bench ~gc ~factor in
                    if runs <> [] && List.for_all Measurement.completed runs then begin
                      let lbos = Lbo.per_invocation_lbos metric ~ideal runs in
                      if Array.length lbos >= 2 then begin
                        incr samples;
                        let ci = Stats.ci95_half_width lbos /. Stats.mean lbos in
                        if ci > !worst then worst := ci
                      end
                    end)
                gcs)
        (core_bench_names campaign);
      if !samples > 0 then
        Printf.printf
          "CI note (%s, %s heap): largest 95%% CI across %d per-benchmark LBO cells is \
           %.1f%% of the mean.\n"
          (Metrics.name metric) (factor_label factor) !samples (100.0 *. !worst))
    [ Metrics.Wall_time; Metrics.Cpu_cycles ];
  print_newline ()

let pause_breakdown ?(factor = default_factor) campaign =
  let gcs = production_gcs campaign in
  (* Pause reasons carry collector-specific prefixes; bucket them into the
     categories the paper's log analysis uses. *)
  let categorise reason =
    let contains needle =
      let n = String.length needle and len = String.length reason in
      let rec go i = i + n <= len && (String.sub reason i n = needle || go (i + 1)) in
      go 0
    in
    if contains "degenerated" then "degenerated"
    else if contains "init-mark" then "init-mark"
    else if contains "final-mark" then "final-mark"
    else if contains "allocation" then "alloc-failure"
    else if contains "young" then "young"
    else if contains "full" then "full"
    else "other"
  in
  let reasons_of gc =
    Harness.runs campaign ~bench:"lusearch" ~gc ~factor
    |> List.concat_map (fun (m : Measurement.t) -> m.Measurement.pauses)
    |> List.map (fun (p : Gcr_engine.Engine.pause) -> categorise p.reason)
  in
  let table_reasons =
    List.sort_uniq compare (List.concat_map reasons_of gcs)
  in
  if table_reasons = [] then print_endline "pause breakdown: no pauses recorded"
  else begin
    let table =
      Tablefmt.create
        ~title:
          (Printf.sprintf
             "EXTENSION -- pause counts by reason, lusearch at %s heap (the log analysis \
              of paper Section IV-C d: degenerated collections betray the pathological \
              modes)"
             (factor_label factor))
        ~columns:table_reasons
    in
    List.iter
      (fun gc ->
        let counts = Hashtbl.create 8 in
        List.iter
          (fun r -> Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r)))
          (reasons_of gc);
        let cells =
          List.map
            (fun r ->
              match Hashtbl.find_opt counts r with
              | Some n -> Tablefmt.Num (float_of_int n, 0)
              | None -> Tablefmt.Missing)
            table_reasons
        in
        Tablefmt.add_row table ~label:(short_name gc) cells)
      gcs;
    Tablefmt.print table
  end

let latency_summary ?(factor = default_factor) campaign =
  let gcs = production_gcs campaign in
  let latency_benches =
    Harness.benchmarks campaign
    |> List.filter (fun s -> s.Spec.latency <> None)
    |> List.map (fun s -> s.Spec.name)
  in
  if latency_benches = [] then print_endline "latency summary: no latency-sensitive benchmarks"
  else begin
    let table =
      Tablefmt.create
        ~title:
          (Printf.sprintf
             "EXTENSION -- metered latency (ms) p50 / p99 / p99.99 at %s heap for every \
              latency-sensitive benchmark"
             (factor_label factor))
        ~columns:(List.map short_name gcs)
    in
    List.iter
      (fun bench ->
        let cells =
          List.map
            (fun gc ->
              let h = pooled_latency campaign ~bench ~gc ~factor in
              if Histogram.is_empty h then Tablefmt.Missing
              else
                Tablefmt.Text
                  (Printf.sprintf "%.2f/%.2f/%.2f"
                     (Units.ms_of_cycles (Histogram.percentile h 50.0))
                     (Units.ms_of_cycles (Histogram.percentile h 99.0))
                     (Units.ms_of_cycles (Histogram.percentile h 99.99))))
            gcs
        in
        Tablefmt.add_row table ~label:bench cells)
      latency_benches;
    Tablefmt.print table
  end

let banner title =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=')

let all campaign =
  banner "Worked example (Tables II-V)";
  worked_example campaign ();
  banner "LBO grids (Tables VI-VII)";
  table_vi campaign;
  table_vii campaign;
  banner "Per-benchmark LBO at 3.0x (Tables VIII-IX)";
  table_viii campaign;
  table_ix campaign;
  banner "STW fractions (Tables X-XI)";
  table_x campaign;
  table_xi campaign;
  banner "Figures 1-2 (lusearch across heap sizes)";
  fig1 campaign;
  fig2 campaign;
  banner "Figures 3-4 (lusearch distributions at 3.0x)";
  fig3 campaign;
  fig4 campaign;
  banner "Extensions (energy metric, CIs, pause reasons, latency summary)";
  table_energy campaign;
  confidence_note campaign;
  pause_breakdown campaign;
  latency_summary campaign
