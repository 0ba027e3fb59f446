(** Deterministic pseudo-random number generation.

    The simulator must be reproducible: every invocation is driven by a seed,
    and independent components (mutator threads, workload generators) draw
    from independent streams split off a root generator.  The implementation
    is SplitMix64, which is fast, has a 64-bit state, and supports cheap
    splitting; statistical quality is more than sufficient for workload
    synthesis. *)

type t
(** A mutable generator.  Not thread-safe (the simulator is single-threaded
    on the host). *)

val create : int -> t
(** [create seed] makes a generator from a seed.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val copy : t -> t
(** [copy t] duplicates the current state; both generators then produce the
    same stream. *)

val raw_state : t -> int64 * int64
(** [(state, gamma)] — the full generator state.  SplitMix64 is
    counter-based (the state after [n] draws is [state + n * gamma]), which
    lets workload tapes resume the exact stream past the recorded prefix. *)

val of_raw_state : state:int64 -> gamma:int64 -> t
(** Rebuild a generator from {!raw_state}; the resulting stream continues
    exactly where the captured one stood. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (inter-arrival
    times of metered request streams). *)

val geometric_size : t -> mean:int -> min:int -> max:int -> int
(** A clamped, geometrically decaying integer used for object-size draws:
    most draws near [min], mean approximately [mean]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto-distributed value, used for heavy-tailed lifetimes. *)
