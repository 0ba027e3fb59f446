(** Cost metrics.

    The LBO methodology is parametric in the notion of cost (paper
    §III-B); these are the two the paper reports throughout, plus the
    simple energy model it suggests as an extension. *)

type t =
  | Wall_time  (** wall-clock cycles of the whole run *)
  | Cpu_cycles  (** cycles consumed across all threads *)
  | Energy
      (** simple model: active cycles cost 1 energy unit, idle CPU-seconds
          cost 0.15 (static power), so parallelism and stalls both show *)

val name : t -> string

val total : t -> Gcr_runtime.Measurement.t -> float
(** The run's total cost under this metric. *)

val apparent_gc : t -> Gcr_runtime.Measurement.t -> float
(** The apparent GC cost, following §III-C: pause wall time for
    [Wall_time]; all GC-thread cycles for [Cpu_cycles] (and the GC share
    of active energy for [Energy]). *)

val other : t -> Gcr_runtime.Measurement.t -> float
(** [total - apparent_gc] — the upper bound on the ideal cost this run
    contributes. *)
