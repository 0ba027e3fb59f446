(** Ablation studies for the simulator's design choices.

    Each study sweeps one knob the collectors' designs hinge on and prints
    how the costs move, using the same measurement machinery as the paper's
    tables.  They answer "is this mechanism actually doing what the design
    section claims?" — e.g. that parallel STW workers trade cycles for
    pause time, or that Shenandoah's trigger threshold trades concurrent
    CPU for degeneration risk. *)

type config = {
  spec : Gcr_workloads.Spec.t;
  heap_factor : float;
  seed : int;
  scale : float;
}

val default_config : ?bench:string -> unit -> config
(** h2 at 3.0x, scale 0.3. *)

val execute :
  ?make_collector:(Gcr_gcs.Gc_types.ctx -> Gcr_gcs.Gc_types.t) ->
  ?cost:Gcr_mach.Cost_model.t ->
  gc:Gcr_gcs.Registry.kind ->
  config ->
  Gcr_runtime.Measurement.t
(** One sweep point: the campaign cell (spec, [gc], heap factor,
    invocation 0) at [config]'s scale and base seed, run with [cost]
    (default {!Gcr_mach.Cost_model.default}) and [make_collector].  A run
    that raises raises {!Gcr_sched.Pool.Crashed}. *)

val gc_workers : config -> unit
(** Sweep the Parallel collector's STW worker count: pause wall time falls
    with workers while GC cycles rise (dispatch, termination, imbalance) —
    the Serial-vs-Parallel tradeoff of paper §IV-C b, made continuous. *)

val tenure_age : config -> unit
(** Sweep the generational tenuring threshold: tenure too early and the
    old space fills with dying objects (full collections); too late and
    survivors are copied repeatedly. *)

val shenandoah_trigger : config -> unit
(** Sweep Shenandoah's cycle-trigger headroom: late triggers save
    concurrent CPU but risk degeneration and pacing; early triggers burn
    CPU continuously. *)

val concurrent_mark_penalty : config -> unit
(** Sweep the cost-model penalty for marking concurrently: how sensitive
    the concurrent collectors' cycle LBOs are to this calibration
    constant. *)

val all : config -> unit
