(** Summary statistics used throughout the evaluation harness.

    The paper reports, for each configuration, the mean and 95% confidence
    interval over 20 invocations, and geometric means across benchmarks.
    These helpers implement exactly those aggregations. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (Bessel-corrected).  Returns 0 for fewer than
    two samples. *)

val ci95_half_width : float array -> float
(** Half-width of the two-sided 95% confidence interval of the mean, using
    Student's t distribution for the sample size at hand.  Returns 0 for
    fewer than two samples. *)

val geomean : float array -> float
(** Geometric mean.  All values must be positive. *)

val min : float array -> float

val max : float array -> float

val percentile : float array -> float -> float
(** [percentile samples p] for [p] in [\[0, 100\]], by linear interpolation
    between closest ranks on a sorted copy.  Raises on an empty array. *)

val t_critical_95 : int -> float
(** Two-sided 95% Student-t critical value for the given degrees of freedom
    (tabulated for small df, 1.96 asymptotically). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;  (** half-width *)
  min : float;
  max : float;
}

val summarize : float array -> summary
(** All of the above in one pass (plus a sort).  Raises on empty input. *)
