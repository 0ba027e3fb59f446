(** The record produced by one benchmark invocation — everything the
    paper's JVMTI/perf agent captures, plus simulator ground truth.

    Cost attribution follows Section III-C of the paper:
    - for wall-clock time, the apparent GC cost is the time inside
      stop-the-world pauses;
    - for CPU cycles, the apparent GC cost is every cycle consumed by GC
      threads (both inside pauses and concurrently), read "per-thread from
      the PMU".
    Barrier and allocation-path cycles remain inside the mutator cost —
    which is exactly why the methodology yields a {e lower} bound. *)

type outcome =
  | Completed
  | Failed of string  (** OOM / deadlock / budget exhausted *)

type t = {
  benchmark : string;
  gc : string;
  heap_words : int;
  seed : int;
  outcome : outcome;
  (* wall clock, cycles of simulated time *)
  wall_total : int;
  wall_stw : int;
  (* per-thread-kind CPU cycles *)
  cycles_mutator : int;
  cycles_gc : int;
  cycles_gc_stw : int;
  pauses : Gcr_engine.Engine.pause list;
  pause_hist : Gcr_util.Histogram.t;
      (** Pause-duration histogram, recorded as each pause closes; the
          exact total/count make {!mean_pause_ms} list-fold identical. *)
  latency_metered : Gcr_util.Histogram.t option;
  latency_simple : Gcr_util.Histogram.t option;
  allocated_words : int;
  allocated_objects : int;
  gc_stats : Gcr_gcs.Gc_types.stats;
  limit_changes : int;
      (** heap-limit moves made by the sizing controller (0 under Fixed) *)
  heap_limit_peak_words : int;
      (** highest heap limit ever in effect (= [heap_words] under Fixed) *)
  footprint_word_cycles : float;
      (** time-weighted integral of the heap limit (word·cycles) — the
          memory half of the memory·time product sizing controllers
          minimise; float because the product overflows 63 bits *)
}

val completed : t -> bool

val cycles_total : t -> int

(** {1 LBO ingredients} *)

val time_other : t -> int

val cycles_gc_apparent : t -> int
(** All GC-thread cycles (the refined per-thread attribution). *)

val cycles_other : t -> int

val cycles_gc_pause_window : t -> int
(** The naive attribution: only cycles inside pause windows (used by the
    attribution ablation). *)

val stw_time_fraction : t -> float

val stw_cycle_fraction : t -> float

val pause_count : t -> int

val mean_pause_ms : t -> float
(** 0 when there were no pauses. *)

val mean_footprint_words : t -> float
(** Footprint integral over total wall time: the run's average heap
    limit.  Equals [heap_words] under Fixed (up to region rounding). *)

val memory_time_integral : t -> float
(** The raw word·cycles integral ({!field-footprint_word_cycles}). *)

val of_obs :
  benchmark:string ->
  gc:string ->
  heap_words:int ->
  seed:int ->
  outcome:outcome ->
  wall_total:int ->
  has_latency:bool ->
  allocated_words:int ->
  allocated_objects:int ->
  gc_stats:Gcr_gcs.Gc_types.stats ->
  Gcr_obs.Obs.t ->
  t
(** Derive every cost field — STW wall time, per-kind cycles, pauses and
    their histogram, latency histograms — from the event spine.  The only
    inputs that do not come from events are the run labels and the heap's
    allocation totals. *)

val failure_line : t -> string option
(** One human-readable line identifying a [Failed] run, [None] when
    completed.  The CLI prints these to stderr and exits non-zero. *)

val failure_lines : t list -> string list

val pp : Format.formatter -> t -> unit
