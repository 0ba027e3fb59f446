(** The pure half of the campaign harness: grid → ordered cell specs.

    A plan is a deterministic function of its inputs — no side effects,
    no clocks, no environment.  It enumerates the full benchmark ×
    collector × heap-factor × invocation grid in the canonical
    submission order (invocation-major, then benchmark, then collector,
    then factor — the interleaving of §IV-A d) and assigns each cell a
    dense result-slot [index], so the fabric, which fills slots by
    index, reproduces the identical campaign at any worker count.

    Cells are grouped by (invocation, benchmark): the cells of one group
    share a (spec, seed) pair and therefore one workload decision
    stream, which is the unit of tape generation and of fabric
    placement.  {!cell_config} builds every cell, and every single run
    through [Harness.cell_config]. *)

type cell = {
  index : int;  (** dense result slot in submission order *)
  invocation : int;
  bench : string;
  gc : Gcr_gcs.Registry.kind;
  factor : float;  (** heap factor; 0.0 for Epsilon *)
  controller : Gcr_policy.Controller.spec;
      (** heap-sizing controller; always [Fixed] for Epsilon *)
  config : Gcr_runtime.Run.config;  (** carries [Tape_off]; executors attach tapes *)
}

type group = {
  invocation : int;
  spec : Gcr_workloads.Spec.t;
  seed : int;
  cells : cell list;  (** in submission order; share (spec, seed) *)
}

type t

val groups : t -> group list
(** In submission order; concatenated cell indexes are 0, 1, 2, …. *)

val n_cells : t -> int

val cells : t -> cell list
(** All cells of all groups, flattened in submission order. *)

val heap_words : region_words:int -> minheap:int -> factor:float -> int
(** [factor × minheap] rounded up to whole regions — the heap-sizing
    rule every executor and report shares. *)

val seed_of : base_seed:int -> invocation:int -> int
(** The per-invocation seed schedule ([base_seed + 1000 × (i + 1)]). *)

exception Unrunnable of string
(** A cell no run can execute, or a benchmark whose min-heap search
    cannot complete ({!Minheap.find}); the string is a one-line reason
    naming the benchmark. *)

val cell_config :
  machine:Gcr_mach.Machine.t -> cost:Gcr_mach.Cost_model.t -> region_words:int ->
  minheap:int -> spec:Gcr_workloads.Spec.t -> seed:int -> gc:Gcr_gcs.Registry.kind ->
  factor:float -> controller:Gcr_policy.Controller.spec -> Gcr_runtime.Run.config
(** One cell's run: a {!heap_words} heap (Epsilon: the machine's memory),
    [Tape_off], no event budget.  [machine] and [spec] already scaled.
    Raises {!Unrunnable} when the heap is below two regions, the fewest
    a heap is built with; the reason names the benchmark, the factor and
    both sizes in words. *)

val cell_cost : cell -> float
(** Unitless runtime estimate for the size-aware fabric scheduler:
    workload volume (threads × packets) weighted by heap tightness
    ([1 + 2/factor]; Epsilon, which never collects, weighs 1).  Only
    relative order across groups matters. *)

val group_cost : group -> float
(** Sum of {!cell_cost} over the group's cells — the scheduler's key. *)

val search_cost : Gcr_workloads.Spec.t -> float
(** Cost estimate for one whole min-heap search of [spec], which the
    fabric deals as one group: a bare workload run's weight, the same
    for every probe, so only the order across benchmarks means
    anything. *)

val plan :
  ?controllers:Gcr_policy.Controller.spec list ->
  invocations:int ->
  base_seed:int ->
  machine:Gcr_mach.Machine.t ->
  cost:Gcr_mach.Cost_model.t ->
  region_words:int ->
  heap_factors:float list ->
  minheap:(bench:string -> int) ->
  specs:Gcr_workloads.Spec.t list ->
  gcs:Gcr_gcs.Registry.kind list ->
  unit ->
  t
(** [specs] must already be scaled; [machine] already memory-scaled;
    [minheap] is consulted once per (invocation, benchmark) group.  Epsilon
    is included implicitly (heap = machine memory, factor 0.0) even when
    absent from [gcs], leading each benchmark's cell block.
    [controllers] (default [[Fixed]], in which case the grid is exactly
    the historical one) multiplies each non-Epsilon (gc, factor) pair —
    the innermost axis; Epsilon always runs a single [Fixed] cell.
    Raises {!Unrunnable} as {!cell_config} does. *)
