(** Discrete-event execution engine.

    The engine owns simulated time (integer cycles), a set of threads, and
    [cpus] logical processors.  Threads execute {e steps}: bounded slices of
    work with a cycle cost and a host-side completion callback.  At most
    [cpus] steps run concurrently; surplus runnable threads wait in a FIFO
    run queue, so contention between mutators and concurrent GC workers
    lengthens wall-clock time exactly as core oversubscription does on real
    hardware.  Stalled threads consume wall time but no cycles — the
    mechanism behind allocation stalls and pacing.

    The engine also implements the safepoint protocol and attributes both
    wall time and per-thread cycles to "inside a stop-the-world pause" vs
    "outside", which is precisely the measurement the paper's JVMTI agent
    performs.

    Steps should stay small (tens of microseconds of simulated time): the
    scheduler is run-to-completion within a step, so step granularity bounds
    both time-to-safepoint and scheduling fairness. *)

type t

type thread

type thread_kind =
  | Mutator
  | Gc_worker

val create :
  cpus:int ->
  ?safepoint_sync_cycles:int ->
  ?cache_disruption_cycles:int ->
  ?obs:Gcr_obs.Obs.t ->
  unit ->
  t
(** [safepoint_sync_cycles] (default 3000): wall cost of reaching a global
    safepoint once every mutator has parked.  [cache_disruption_cycles]
    (default 0): cold-cache penalty added to each mutator's first step
    after a pause (collection work displaced its cache — paper §II-B).
    [obs] (default: a fresh spine) receives every scheduling, safepoint and
    stall event; all accounting below is derived from it. *)

val obs : t -> Gcr_obs.Obs.t
(** The observation spine this engine emits into.  Collectors, the heap and
    workloads reach it through here; its clock is wired to {!now}. *)

val reset :
  t ->
  cpus:int ->
  ?safepoint_sync_cycles:int ->
  ?cache_disruption_cycles:int ->
  unit ->
  unit
(** Rewind the engine (and its observation spine, subscribers included)
    to the post-{!create} state under possibly new machine parameters,
    keeping internal capacities — the warm execution path's per-worker
    reuse.  Safe after aborted runs: no clean end state is assumed, and
    no pending step, stall or timer continuation of the old run is kept
    or ever called.  Threads spawned before the reset are finished: their
    handles can no longer submit.  Same defaults and validation as
    {!create}. *)

(** {1 Threads and steps} *)

val spawn : t -> kind:thread_kind -> name:string -> thread

val thread_kind : thread -> thread_kind

val thread_id : thread -> int
(** The engine tid, as carried by the thread's events. *)

val submit : t -> thread -> cycles:int -> (unit -> unit) -> unit
(** Schedule the thread's next step.  The thread must be idle (no step
    pending).  When the step has consumed [cycles] on a CPU, the callback
    runs; it typically submits the next step.  If a safepoint is pending and
    the thread is a mutator, the step is parked until release. *)

val exit_thread : t -> thread -> unit
(** Mark the thread finished.  When the last mutator exits, [run]
    returns. *)

val stall : t -> thread -> cycles:int -> (unit -> unit) -> unit
(** Put the thread to sleep for [cycles] of wall time without occupying a
    CPU or accruing cycles; then run the continuation. *)

val park : t -> thread -> unit
(** Block the thread indefinitely (e.g. waiting for a collection); resume
    with {!resume}. *)

val resume : t -> thread -> (unit -> unit) -> unit
(** Unblock a parked thread by scheduling a zero-cost continuation. *)

(** {1 Timers} *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Run a host callback at the given simulated time (≥ now).  Timer
    callbacks consume no cycles and need no CPU (external events such as
    request arrivals). *)

val after : t -> cycles:int -> (unit -> unit) -> unit
(** [at] [cycles] from now; raises [Invalid_argument] when [cycles] is
    negative. *)

(** {1 Safepoints and pauses} *)

val request_stop : t -> reason:string -> (unit -> unit) -> unit
(** Bring all mutators to a stop.  Mutators park at their next step
    boundary; once none is running, the global sync cost elapses, the pause
    window opens and the callback runs.  Only one outstanding request is
    allowed. *)

val release_stop : t -> unit
(** Close the pause window and release every mutator parked at the
    safepoint. *)

val stw_active : t -> bool

val stop_requested : t -> bool
(** A stop is pending or a pause is open — collectors must not issue a
    second [request_stop] while this holds. *)

type pause = Gcr_obs.Obs.pause = { start : int; duration : int; reason : string }

val pauses : t -> pause list
(** Completed pauses, in order. *)

(** {1 Time and accounting}

    All accounting is derived from the observation spine; the engine keeps
    no counters of its own. *)

val now : t -> int

val wall_stw : t -> int
(** Wall cycles spent inside pause windows so far (a currently open pause
    counts up to now). *)

val cycles_of_kind : t -> thread_kind -> int
(** Total cycles consumed by threads of that kind. *)

val cycles_stw_of_kind : t -> thread_kind -> int
(** The subset consumed inside pause windows. *)

val cycles_of_thread : thread -> int

(** {1 Legacy accounting (differential testing only)}

    When the environment variable [GCR_LEGACY_ACCOUNTING] is set at engine
    creation, the pre-event-spine counters are maintained in parallel so
    tests can assert the derived numbers match them exactly. *)

type legacy_snapshot = {
  lsnap_wall_stw : int;
  lsnap_cycles_mutator : int;
  lsnap_cycles_gc : int;
  lsnap_cycles_mutator_stw : int;
  lsnap_cycles_gc_stw : int;
  lsnap_pauses : pause list;
}

val legacy_snapshot : t -> legacy_snapshot option
(** [None] unless legacy accounting was enabled at creation. *)

(** {1 Running} *)

type outcome =
  | All_mutators_finished
  | Aborted of string

val abort : t -> reason:string -> unit
(** Stop the simulation at the current instant (e.g. OutOfMemoryError). *)

val run : t -> ?max_events:int -> unit -> outcome
(** Process events until every mutator has exited, [abort] is called, or
    the engine detects that no progress is possible (reported as
    [Aborted "deadlock"]).  [max_events] (default 50 million) guards
    against runaway simulations. *)

val run_until : t -> time:int -> ?max_events:int -> unit -> outcome option
(** Like {!run}, but additionally pauses once the next queued event lies
    strictly after [time]: [None] means the simulation is still alive and
    a later [run_until]/[run] resumes it losslessly (the horizon event
    stays queued; the clock stays at the last processed event).  The
    epoch-stepping primitive under the multi-tenant memory market, where
    several engines advance in lockstep between broker decisions.
    [Some outcome] means the run ended before the horizon. *)
