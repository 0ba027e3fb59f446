(** A pool of GC worker threads running phases of divisible work.

    A {e phase} is a function that performs a bounded slice of work on the
    host and returns its simulated cost in cycles (0 = no work left).
    Workers repeatedly pull slices and execute them as engine steps;
    per-slice dispatch overhead and a logarithmic termination barrier are
    charged, so multi-worker pools burn more cycles than a single worker
    for the same work — the single-threaded-vs-parallel tradeoff of the
    paper (Section IV-C b).

    Workers are engine threads of kind [Gc_worker]: during a pause their
    cycles are attributed to STW, and outside pauses they contend with
    mutators for CPUs.

    Continuations live per pool: each worker's pull and finish
    continuations are built once, by {!create}, and the running phase's
    [work], [on_done] and phase are kept in the pool, so starting a phase
    or a slice allocates nothing. *)

type t

val create : Gc_types.ctx -> count:int -> name:string -> t
(** [name] tags the pool's phase events with the collector it belongs to. *)

val count : t -> int

val name : t -> string

val busy : t -> bool
(** A phase is currently executing. *)

val run_phase :
  t ->
  phase:Gcr_obs.Event.phase ->
  work:(worker:int -> int) ->
  on_done:(unit -> unit) ->
  unit
(** Start a phase.  [work ~worker] applies a slice of work and returns its
    cost in cycles, or 0 when no work remains.  [on_done] runs once, after
    every worker has passed the termination barrier.  Raises if a phase is
    already in flight.  Each worker emits a [phase] begin event when the
    phase starts and an end event as it passes the termination barrier. *)

val one_shot : int -> worker:int -> int
(** [one_shot cycles] is phase work that one slice takes whole: the
    first worker to pull gets [cycles], every later pull finds none. *)

val run_phases :
  t ->
  (Gcr_obs.Event.phase * (worker:int -> int)) list ->
  on_done:(unit -> unit) ->
  unit
(** Run several phases back to back (each with its own termination), then
    [on_done]. *)
