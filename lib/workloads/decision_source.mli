(** Where a mutator's workload decisions come from.

    The three workload drivers (mutator, long-lived graph, latency
    schedule) draw every random decision through one of two sources:

    - {e Live}: straight from a SplitMix64 stream — the historical path.
    - {e Replay}: a cursor over a prebuilt {!image} of a tape that
      {!Tape_gen.generate} produced — per-decision work is an array read
      and a bit test, no PRNG mixing and no float math.

    The tape stores raw PRNG output rather than interpreted decisions
    because the {e consumption pattern} is collector-dependent (an
    [Out_of_regions] retry re-draws the allocation size), while the stream
    itself is not.  Interpretation therefore happens at the call site in
    both modes; the replay image just precomputes every interpretation
    this spec can ask for — the clamped geometric size in the low bits,
    one bit per Bernoulli site — so the hot path picks bits instead of
    computing [log].

    A replay source that runs past the recorded stream falls back to a
    live generator positioned at [state0 + length·gamma] — the exact
    continuation of the recorded stream (SplitMix64 is counter-based) —
    so replay is bit-identical to live for {e every} cell, including
    retry-heavy near-OOM ones, regardless of tape length. *)

type t

type image
(** An immutable, domain-shareable replay image of one tape: per-thread
    packed decision arrays plus the raw words (for [mod]-bound index
    draws) and the latency arrival schedule. *)

(** {1 Constructing sources} *)

val live : spec:Spec.t -> Gcr_util.Prng.t -> t

val replay : image -> thread:int -> t
(** [replay image ~thread] is a fresh cursor over thread [thread]'s
    stream.  Raises [Invalid_argument] if the image has no such thread. *)

(** {1 Drawing decisions}

    One call consumes exactly one stream word, mirroring the PRNG. *)

val draw_size : t -> int
(** Clamped geometric object size in [size_min..size_max]. *)

val chain : t -> bool
(** Chain this allocation to the previous one (p = 1/2). *)

val ll_ref : t -> bool
(** Sparsely reference the long-lived graph (p = 0.3). *)

val survive : t -> bool
(** Retain this object in the nursery FIFO (p = survival_ratio). *)

val churn_extra : t -> bool
(** Round the fractional long-lived churn quota up this packet. *)

val index : t -> int -> int
(** Uniform slot index in [\[0, bound)]; [bound] must be positive. *)

(** {1 Tapes and images} *)

val image_of_tape : spec:Spec.t -> Gcr_tape.Tape.t -> image
(** Precompute the replay image.  Raises [Invalid_argument] when the
    tape's spec digest does not match [spec] — a tape is only meaningful
    against the exact spec it was recorded for. *)

val image_benchmark : image -> string

val image_spec_digest : image -> string

val image_seed : image -> int

val image_threads : image -> int

val image_arrivals : image -> int array

val image_digest : image -> string
(** The underlying tape's content digest (folded into cache keys). *)
