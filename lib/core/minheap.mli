(** Minimum-heap measurement.

    The paper sizes every heap relative to the minimum heap in which the
    benchmark completes, measured with G1 ("the most space-efficient GC
    among the ones we study", §IV-A).  This module performs that search:
    exponential probing for an upper bound, then binary search down to a
    region granularity.  Answers are memoised in-process only; a search
    given a {!Gcr_sched.Result_cache} stores each probe there, so a repeat
    search in a fresh process replays its probes instead of running
    them.  Every caller passes [Harness.minheap_config], the campaign's
    search (G1 on the scaled machine at the base seed).  A campaign deals
    each cold search whole to a fabric worker, which runs {!search}. *)

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

val search :
  ?cache:Gcr_sched.Result_cache.t ->
  ?state:Gcr_runtime.Run.state ->
  ?before_probe:(unit -> unit) ->
  config ->
  Gcr_workloads.Spec.t ->
  Gcr_runtime.Measurement.t
(** One whole search, memo untouched: every probe replays one tape image
    (when [config.tapes]) on [state] (default: a fresh one), through
    [cache] if given, after [before_probe] (a fabric worker heartbeats
    there).  Returns the probe that decided it, the completed probe at
    the minimum heap, whose [heap_words] is the minimum; or, when the
    benchmark does not complete even in machine memory, a failed
    measurement whose reason names the benchmark. *)

val minimum : Gcr_runtime.Measurement.t -> int
(** The minimum heap in words a {!search} result gives.  Raises
    {!Planner.Unrunnable} with the reason of a search that could not
    complete. *)

val find :
  ?cache:Gcr_sched.Result_cache.t -> config:config -> Gcr_workloads.Spec.t -> int
(** Minimum heap size in words (a whole number of regions) in which the
    benchmark completes.  A memoised answer returns at once; otherwise
    {!search} runs, storing each probe in (and replaying it from)
    [cache] when one is given.  Raises {!Planner.Unrunnable}, naming the
    benchmark, if it cannot complete even in the machine's full
    memory. *)

val find_cached : config -> Gcr_workloads.Spec.t -> int option
(** The memoised answer only — never probes. *)

val record : config -> Gcr_workloads.Spec.t -> int -> unit
(** Memoise a search result computed elsewhere, such as a search a
    fabric worker ran.  First write wins. *)

(** The probe sequence as an explicit state machine, which {!search}
    walks; perfbench's traced walk and the golden floor probe step
    through it themselves.  The sequence — exponential doubling from the
    live-set floor, then bisection — is a pure function of the
    completion answers, so every walk lands on the minimum {!find}
    computes. *)
module Search : sig
  type t

  val start : config -> Gcr_workloads.Spec.t -> t

  val probe_config : t -> Gcr_runtime.Run.config option
  (** The run config of the next probe, [None] once finished.  It
      carries [Tape_off] (the caller attaches the search's tape) and the
      fail-fast event budget of every probe of {!search}, so probe
      results are cache-compatible between walks.  Raises
      {!Planner.Unrunnable} when doubling escapes machine memory. *)

  val advance : t -> completed:bool -> unit
  (** Feed back whether the probed heap completed the benchmark. *)

  val result_words : t -> int option
  (** The minimum heap in words once the search is finished. *)
end

val clear_memo : unit -> unit
(** Forget every memoised answer, so the next {!find} searches again. *)
