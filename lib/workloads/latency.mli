(** Metered request stream for latency-sensitive benchmarks.

    Models DaCapo Chopin's latency harness: requests are processed eagerly
    (so the benchmark's duration remains a throughput measure), but each
    carries a {e synthetic} arrival timestamp drawn from a metered Poisson
    schedule whose rate is fixed independently of how fast the system
    actually runs.  Two latency measures are recorded, as in the paper
    (§IV-A):

    - {e simple}: completion − service start (ignores queueing);
    - {e metered}: completion − synthetic arrival, floored at the service
      time (a GC pause delays the requests in flight {e and} everything
      scheduled behind them — the measure the paper argues for).

    Latencies are recorded in cycles; convert with [Units.ms_of_cycles]. *)

type t

val arrival_schedule : spec:Spec.t -> threads:int -> Gcr_util.Prng.t -> int array
(** The metered (Poisson) arrival timestamps, in cycles, nondecreasing.
    A pure function of its arguments — the part of the latency harness a
    workload tape records.  [spec.latency] must be present. *)

val create :
  Gcr_gcs.Gc_types.ctx ->
  spec:Spec.t ->
  mutators:Mutator.t list ->
  arrivals:int array ->
  t
(** [spec.latency] must be present; [arrivals] comes from
    {!arrival_schedule} or a replayed tape and must be non-empty. *)

val start : t -> unit
(** Install the arrival process and set every mutator serving.  All
    mutator threads exit once the last request completes. *)

