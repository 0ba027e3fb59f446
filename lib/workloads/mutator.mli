(** A mutator thread executing packets of the workload.

    Each packet is base compute plus the spec's allocation/read/write
    quotas, with every allocation and pointer write mediated by the
    collector (barrier costs, refill policy, allocation failure).  The
    packet application is written in continuation style so a collection or
    an allocation stall can interrupt it mid-allocation and resume exactly
    where it left off. *)

type t

val create :
  Gcr_gcs.Gc_types.ctx ->
  gc:Gcr_gcs.Gc_types.t ->
  spec:Spec.t ->
  longlived:Longlived.t ->
  ds:Decision_source.t ->
  index:int ->
  t
(** Spawns the engine thread and registers the thread's eden allocator.
    Every workload decision the thread makes is drawn from [ds] — a live
    PRNG stream or a tape replay cursor. *)

val thread : t -> Gcr_engine.Engine.thread

val iter_roots : t -> (Gcr_heap.Obj_model.id -> unit) -> unit
(** The thread's live stack/locals: the most recent allocation, then the
    nursery newest-first.  Allocation-free; this is the path the
    collectors' root scans use. *)

val roots : t -> Gcr_heap.Obj_model.id list
(** [roots t] is [iter_roots] materialised as a list, in the same order
    (tests and debugging). *)

val packets_executed : t -> int

val start_batch : t -> unit
(** Self-driven mode: run [spec.packets_per_thread] packets, then exit the
    thread (throughput benchmarks). *)

val run_packets : t -> int -> (unit -> unit) -> unit
(** Server mode: run [n] packets then call the continuation, leaving the
    thread alive (latency benchmarks drive this per request). *)

val exit : t -> unit
(** Exit the engine thread (server mode shutdown). *)
