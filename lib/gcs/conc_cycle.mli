(** The concurrent collection cycle shared by Shenandoah, ZGC and, for
    its old generation, GenShen.

    One cycle is: init-mark pause (root scan) → concurrent marking (SATB
    protected) → final-mark pause (root re-scan, drain, collection-set
    selection) → concurrent evacuation → concurrent reference update.
    The caller supplies a {e pause broker}: in normal operation it opens a
    real safepoint; in degenerated mode (the pause is already open because
    allocation failed) it runs the body immediately, which turns the
    remainder of the cycle into stop-the-world work — exactly Shenandoah's
    degenerated GC semantics. *)

type phase =
  | Idle
  | Marking
  | Evacuating
  | Updating

type t

val create :
  Gc_types.ctx ->
  pool:Worker_pool.t ->
  garbage_threshold:float ->
  reserve_regions:(unit -> int) ->
  concurrent_copy:bool ->
  ?old_only:bool ->
  unit ->
  t
(** [garbage_threshold]: regions with more than this fraction of garbage
    enter the cset.  [reserve_regions]: free regions kept out of the
    evacuation budget — a thunk, re-evaluated every cset selection, so a
    heap resized mid-run by a sizing controller is never budgeted against
    stale geometry.  [concurrent_copy]: use the CAS-guarded copy cost.
    [old_only]: restrict the cset to old regions (generational
    Shenandoah leaves the young generation to its scavenges). *)

val phase : t -> phase

val active : t -> bool
(** The phase is not [Idle].  A cycle that {!start} has taken but whose
    init-mark pause has not opened yet is not active. *)

val start :
  t ->
  pause:(string -> ((unit -> unit) -> unit) -> unit) ->
  on_done:(evac_failed:bool -> unit) ->
  unit
(** Raises if a cycle is already in flight.  [pause reason body] must open
    a safepoint (or reuse the already-open degenerated pause) and call
    [body release]; [body] calls [release] exactly once when its pause work
    is finished.  [on_done ~evac_failed:true] means to-space was exhausted
    mid-evacuation: the heap is consistent but the cset was not fully
    reclaimed; the caller must fall back to a full collection. *)

val cycles_completed : t -> int

val words_copied : t -> int

val objects_marked : t -> int

val satb_publish : t -> Gcr_heap.Obj_model.id -> unit
(** SATB write-barrier hook: publish an overwritten reference while
    marking is active (no-op otherwise). *)

val mark_new_object : t -> Gcr_heap.Obj_model.id -> unit
(** Allocation hook: objects born during marking are implicitly live. *)
