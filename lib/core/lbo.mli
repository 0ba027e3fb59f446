(** The lower-bound overhead (LBO) methodology — the paper's contribution
    (Section III).

    For a fixed workload and machine, each collector [g] yields an
    observation: its total cost and its apparent GC cost under some
    metric.  Since the cost outside apparent GC activity strictly exceeds
    the cost of a notional ideal (zero-cost) GC,

    {v  Ĉost_ideal = min_g (Cost_total(g) − Cost_gc(g))
    LBO(g)      = Cost_total(g) / Ĉost_ideal           v}

    gives a lower bound on each collector's absolute overhead.  Adding
    collectors (e.g. Epsilon where it fits in memory) can only tighten the
    bound (make LBO values larger), never invalidate it. *)

type observation = {
  collector : string;
  total : float;
  apparent_gc : float;
}

val observation :
  Metrics.t -> Gcr_runtime.Measurement.t list -> observation option
(** Aggregate one collector's invocations (means).  [None] if the list is
    empty or any invocation failed — matching the paper's blank entries. *)

val other_cost : observation -> float

val ideal_estimate : observation list -> float
(** The tightest upper bound on the ideal cost over this collector set.
    Raises [Invalid_argument] on an empty list. *)

val lbo : ideal:float -> total:float -> float

val compute : observation list -> (observation * float) list
(** Each observation paired with its LBO value (order preserved). *)

val per_invocation_lbos :
  Metrics.t -> ideal:float -> Gcr_runtime.Measurement.t list -> float array
(** LBO of each completed invocation against a fixed ideal estimate — the
    samples behind the paper's confidence intervals. *)
