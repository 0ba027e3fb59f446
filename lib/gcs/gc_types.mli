(** The collector interface.

    A collector is a record of closures consulted by the mutator on its hot
    paths (allocation, field reads and writes) plus the machinery that runs
    collection work on GC threads.  The record-of-closures shape keeps the
    mutator code identical across all nine collectors — exactly the property
    that makes the LBO methodology applicable: the runtime never needs to
    know which collector it is running. *)

type ctx = {
  heap : Gcr_heap.Heap.t;
  engine : Gcr_engine.Engine.t;
  cost : Gcr_mach.Cost_model.t;
  machine : Gcr_mach.Machine.t;
  iter_roots : ((Gcr_heap.Obj_model.id -> unit) -> unit) ref;
      (** set by the runtime once the workload exists; collectors call it
          at the start of every marking phase.  A visitor rather than a
          list: root enumeration pushes ids straight into the tracer with
          no per-collection list building. *)
  allocators : Gcr_heap.Allocator.t Gcr_util.Vec.t;
      (** every long-lived allocation buffer (mutator TLABs, promotion
          targets); collectors retire them all at collection boundaries so
          no stale current-region pointer survives region reshuffling *)
  oom : string -> unit;  (** aborts the run with an OutOfMemoryError *)
  pause_marks : Gcr_util.Ivec.t;
      (** mark stack of the traces that live within one pause: a scavenge
          and the full compaction that may follow it *)
  conc_marks : Gcr_util.Ivec.t;
      (** mark stack of the concurrent trace (G1's mark and final mark,
          {!Conc_cycle}'s, LXR's cycle trace), which stays live across
          young pauses and so cannot share [pause_marks] *)
  survivors : Gcr_util.Ivec.t;  (** the full compaction's survivor list *)
}

val make_ctx :
  heap:Gcr_heap.Heap.t ->
  engine:Gcr_engine.Engine.t ->
  cost:Gcr_mach.Cost_model.t ->
  machine:Gcr_mach.Machine.t ->
  ctx
(** Root enumeration defaults to visiting nothing; [oom] aborts the
    engine.  The three scratch vectors are built here, once per run, and
    every collection of the run reuses them: a collection allocates no
    mark stack or survivor array of its own.  They belong to the run, not
    the process, because one process may interleave several runs. *)

(** {1 Helpers every collector shares} *)

val free_fraction : ctx -> float
(** The share of the heap's regions in the free pool. *)

val low_free : ctx -> bool
(** Under 2% of the heap's regions are free: the test behind every
    collector's GC-overhead limit. *)

val root_scan_cost : int -> int
(** Cycles a pause spends scanning [n] roots: 20 per root, a fixed price
    outside {!Gcr_mach.Cost_model}. *)

type waiters
(** Mutator threads parked until a collection frees memory. *)

val waiters : unit -> waiters

val park : ctx -> waiters -> Gcr_engine.Engine.thread -> (unit -> unit) -> unit
(** Park the thread; [cont] runs when {!resume_waiters} wakes it. *)

val resume_waiters : ctx -> waiters -> unit
(** Wake every parked thread, in the order they parked. *)

type stats = {
  collections : int;  (** completed collection cycles of any kind *)
  full_collections : int;  (** full / degenerated STW collections *)
  words_copied : int;
  objects_marked : int;
  stalls : int;  (** pacing / allocation-stall episodes imposed on mutators *)
}

type t = {
  name : string;
  read_barrier : unit -> int;
      (** current per-field-read cost charged to the mutator *)
  write_barrier : unit -> int;
      (** current per-pointer-write cost charged to the mutator *)
  on_alloc : Gcr_heap.Obj_model.id -> unit;
      (** every new object is announced (concurrent markers treat objects
          allocated during marking as implicitly live) *)
  on_pointer_write :
    src:Gcr_heap.Obj_model.id ->
    old_target:Gcr_heap.Obj_model.id ->
    new_target:Gcr_heap.Obj_model.id ->
    unit;
      (** every pointer-field write is announced before it happens:
          generational collectors maintain their remembered set, SATB
          collectors enqueue the overwritten value *)
  after_refill : Gcr_engine.Engine.thread -> cont:(unit -> unit) -> unit;
      (** the thread just took a region from the free pool; the collector
          may run its trigger heuristics.  It must call [cont] exactly once,
          immediately or after parking the thread across a collection *)
  on_out_of_regions : Gcr_engine.Engine.thread -> retry:(unit -> unit) -> unit;
      (** the free pool is empty.  The collector must collect, stall, or
          declare OOM; [retry] re-attempts the allocation *)
  stats : unit -> stats;
}

val no_stats : stats
