(** Incremental transitive marking.

    All six collectors establish liveness by tracing, so they share this
    engine: a mark stack drained in bounded slices so the work can be
    spread across worker steps (parallel STW phases) or interleaved with
    mutator execution (concurrent phases).

    The tracer is also the extension point for copying collectors: the
    [on_mark] callback fires exactly once per reached object and may move
    it, returning the extra cycles to charge (a scavenge is a trace whose
    [on_mark] copies).  SATB buffers are modelled by pushing overwritten
    values as additional roots while the trace is in flight.

    The mark loop works directly on the heap's struct-of-arrays object
    store: liveness, mark bits and field extents are flat int-array reads
    through planes hoisted once per slice, with no host allocation per
    visited object.  An unfiltered trace runs a loop that makes no call
    at all.  The stack is LIFO and children are pushed in field order;
    that order decides a scavenge's copy order, and so must not
    change. *)

type t

exception Trace_failure of string
(** Raised out of {!drain} by an [on_mark] that cannot proceed (promotion
    failure, to-space exhaustion).  The collector catches it and falls back
    (full or degenerated collection). *)

val create :
  Gc_types.ctx ->
  stack:Gcr_util.Ivec.t ->
  use_scratch:bool ->
  update_region_live:bool ->
  ?should_visit:(Gcr_heap.Obj_model.id -> bool) ->
  ?on_mark:(Gcr_heap.Obj_model.id -> int) ->
  unit ->
  t
(** The caller must begin the corresponding heap epoch (mark or scratch)
    first.  [stack] is the mark stack: [create] clears it and the tracer
    pushes onto it and drains it, so a tracer allocates no stack of its
    own.  Callers pass one of the run's scratch stacks,
    [Gc_types.ctx.pause_marks] or [conc_marks].  Invariant: at most one
    tracer drains a stack at a time.  Creating a tracer on a stack ends
    the previous tracer on it, which must not be used again.

    [should_visit] (default: every object) bounds the trace (e.g. young
    objects only for a scavenge); objects failing it are neither marked
    nor traversed.  [on_mark] (default: no extra cost) is the copy
    hook described above; it must not add roots to the tracer that
    calls it.  With both omitted, {!drain} makes no closure call at
    all.  [update_region_live] accumulates marked sizes into the owning
    region's [live_words] (reset them beforehand). *)

val add_root : t -> Gcr_heap.Obj_model.id -> unit
(** Push a root (or SATB-buffered value).  Dead, already-marked and
    filtered-out ids are ignored. *)

val add_roots : t -> Gcr_heap.Obj_model.id list -> unit

val drain : t -> budget:int -> int
(** Process up to [budget] objects; returns the cycle cost of the slice,
    0 when the stack is empty.  When [on_mark] raises [Trace_failure],
    the stack no longer holds the object it was called on, and
    {!objects_marked} and {!words_marked} count that object while
    {!edges_seen} does not yet count its fields. *)

val pending : t -> bool

val objects_marked : t -> int

val words_marked : t -> int

val edges_seen : t -> int
