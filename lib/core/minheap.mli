(** Minimum-heap measurement.

    The paper sizes every heap relative to the minimum heap in which the
    benchmark completes, measured with G1 ("the most space-efficient GC
    among the ones we study", §IV-A).  This module performs that search:
    exponential probing for an upper bound, then binary search down to a
    region granularity.  Answers are memoised in-process only; a search
    given a {!Gcr_sched.Result_cache} stores each probe there, so a repeat
    search in a fresh process replays its probes instead of running
    them.  Every caller passes [Harness.minheap_config], the campaign's
    search (G1 on the scaled machine at the base seed). *)

type config = {
  machine : Gcr_mach.Machine.t;
  cost : Gcr_mach.Cost_model.t;
  region_words : int;
  seed : int;
  gc : Gcr_gcs.Registry.kind;  (** G1 in the paper's protocol *)
  tapes : bool;
      (** drive every probe of a search from one generated workload tape
          (results are bit-identical to live PRNG probes; tests use
          [false] as the replay oracle) *)
}

val find :
  ?cache:Gcr_sched.Result_cache.t -> config:config -> Gcr_workloads.Spec.t -> int
(** Minimum heap size in words (a whole number of regions) in which the
    benchmark completes.  A memoised answer returns at once; otherwise
    the search runs, storing each probe in (and replaying it from)
    [cache] when one is given.  Raises [Failure] if the benchmark cannot
    complete even in the machine's full memory. *)

val find_cached : config -> Gcr_workloads.Spec.t -> int option
(** The memoised answer only — never probes. *)

val record : config -> Gcr_workloads.Spec.t -> int -> unit
(** Memoise a search result computed by an external driver such as the
    fabric's probe waves.  First write wins. *)

(** The probe sequence as an explicit state machine, for drivers that
    execute probes elsewhere (the campaign fabric runs many searches
    concurrently, one single-cell group per probe).  The sequence —
    exponential doubling from the live-set floor, then bisection — is a
    pure function of the completion answers, so every driver lands on
    the minimum {!find} computes. *)
module Search : sig
  type t

  val start : config -> Gcr_workloads.Spec.t -> t

  val probe_regions : t -> int option
  (** Next heap size to probe, in regions; [None] once finished.  Raises
      [Failure] when doubling escapes machine memory. *)

  val probe_config : t -> Gcr_runtime.Run.config option
  (** The full run config for the next probe (carries [Tape_off]; the
      executor attaches the group tape), built exactly as the inline
      search builds its probes — including the fail-fast event budget —
      so probe results are cache-compatible between drivers. *)

  val advance : t -> completed:bool -> unit
  (** Feed back whether the probed heap completed the benchmark. *)

  val result_words : t -> int option
  (** The minimum heap in words once the search is finished. *)
end

val clear_memo : unit -> unit
(** Forget every memoised answer, so the next {!find} searches again. *)
