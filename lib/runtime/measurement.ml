module Units = Gcr_util.Units
module Histogram = Gcr_util.Histogram
module Obs = Gcr_obs.Obs
module Event = Gcr_obs.Event

type outcome = Completed | Failed of string

type t = {
  benchmark : string;
  gc : string;
  heap_words : int;
  seed : int;
  outcome : outcome;
  wall_total : int;
  wall_stw : int;
  cycles_mutator : int;
  cycles_gc : int;
  cycles_gc_stw : int;
  pauses : Gcr_engine.Engine.pause list;
  pause_hist : Gcr_util.Histogram.t;
  latency_metered : Gcr_util.Histogram.t option;
  latency_simple : Gcr_util.Histogram.t option;
  allocated_words : int;
  allocated_objects : int;
  gc_stats : Gcr_gcs.Gc_types.stats;
  limit_changes : int;
  heap_limit_peak_words : int;
  footprint_word_cycles : float;
      (** time-weighted integral of the heap limit over the run
          (word·cycles) — the memory half of the memory·time cost a
          sizing controller trades against; float because the product
          overflows 63 bits on long runs *)
}

let completed t = t.outcome = Completed

let cycles_total t = t.cycles_mutator + t.cycles_gc

let time_other t = t.wall_total - t.wall_stw

let cycles_gc_apparent t = t.cycles_gc

let cycles_other t = cycles_total t - cycles_gc_apparent t

let cycles_gc_pause_window t = t.cycles_gc_stw

let stw_time_fraction t =
  if t.wall_total = 0 then 0.0 else float_of_int t.wall_stw /. float_of_int t.wall_total

let stw_cycle_fraction t =
  let total = cycles_total t in
  if total = 0 then 0.0 else float_of_int t.cycles_gc_stw /. float_of_int total

let pause_count t = Histogram.count t.pause_hist

let mean_pause_ms t =
  (* [Histogram.total] is the exact sum of recorded durations, so this is
     bit-identical to folding over the pause list. *)
  match Histogram.count t.pause_hist with
  | 0 -> 0.0
  | n -> Units.ms_of_cycles (Histogram.total t.pause_hist) /. float_of_int n

let mean_footprint_words t =
  if t.wall_total = 0 then float_of_int t.heap_words
  else t.footprint_word_cycles /. float_of_int t.wall_total

let memory_time_integral t = t.footprint_word_cycles

let of_obs ~benchmark ~gc ~heap_words ~seed ~outcome ~wall_total ~has_latency
    ~allocated_words ~allocated_objects ~gc_stats obs =
  (* regions → words via the heap-init geometry the spine recorded *)
  let region_words = Obs.heap_region_words obs in
  {
    benchmark;
    gc;
    heap_words;
    seed;
    outcome;
    wall_total;
    wall_stw = Obs.wall_stw obs ~now:wall_total;
    cycles_mutator = Obs.cycles_of_kind obs Event.mutator_kind;
    cycles_gc = Obs.cycles_of_kind obs Event.gc_worker_kind;
    cycles_gc_stw = Obs.cycles_stw_of_kind obs Event.gc_worker_kind;
    pauses = Obs.pauses obs;
    pause_hist = Obs.pause_histogram obs;
    latency_metered = (if has_latency then Some (Obs.latency_metered obs) else None);
    latency_simple = (if has_latency then Some (Obs.latency_simple obs) else None);
    allocated_words;
    allocated_objects;
    gc_stats;
    limit_changes = Obs.limit_changes obs;
    heap_limit_peak_words = Obs.heap_limit_peak_regions obs * region_words;
    footprint_word_cycles =
      float_of_int (Obs.footprint_region_cycles obs ~now:wall_total)
      *. float_of_int region_words;
  }

let failure_line t =
  match t.outcome with
  | Completed -> None
  | Failed reason ->
      Some
        (Printf.sprintf "%s/%s heap=%d seed=%d failed: %s" t.benchmark t.gc
           t.heap_words t.seed reason)

let failure_lines ms = List.filter_map failure_line ms

let pp ppf t =
  let status = match t.outcome with Completed -> "ok" | Failed reason -> "FAILED: " ^ reason in
  Format.fprintf ppf
    "%s/%s heap=%a [%s] wall=%.2fms (stw %.1f%%) cycles: mutator=%a gc=%a pauses=%d"
    t.benchmark t.gc Units.pp_words t.heap_words status
    (Units.ms_of_cycles t.wall_total)
    (100.0 *. stw_time_fraction t)
    Units.pp_cycles t.cycles_mutator Units.pp_cycles t.cycles_gc (pause_count t)
