(** The generational stop-the-world collector behind Serial, Parallel and
    SerialPT, and the young generation that G1 and GenShen build on.

    Young collections are copying scavenges: live young objects (found by a
    bounded trace over eden+survivor from the workload roots plus the
    remembered set) are copied to survivor regions, or promoted to old
    space once they have survived [tenure_age] collections.  When the free
    pool runs low after a young collection — or a scavenge suffers
    promotion failure — the shared full mark-compact runs.

    Serial runs the same algorithm with one GC worker; Parallel with many
    (paying dispatch and termination-barrier overheads — the
    time-vs-cycles tradeoff of the paper's Section IV-C b). *)

type config = {
  name : string;
  stw_workers : int;
  tenure_age : int;  (** promotions happen at this copy count (default 2) *)
}

val serial_config : cpus:int -> config

val parallel_config : cpus:int -> config
(** HotSpot's default ergonomics: ParallelGCThreads
    = 8 + 5/8 × (cpus − 8) for cpus > 8. *)

val make : Gc_types.ctx -> config -> Gc_types.t

(** {1 The young generation}

    One copy of the nursery's state and mechanisms for every generational
    collector: Serial, Parallel and SerialPT above, G1 and GenShen, which
    add their old-generation machinery around it.  A young pause runs
    {!scavenge}, may fall back to {!full_compact}, and ends with
    {!end_pause} and {!release}. *)

type young
(** The nursery's state: its worker pool, remembered set, parked
    threads, eden budget, GC-overhead-limit streak and counters. *)

val young : Gc_types.ctx -> name:string -> pool:Worker_pool.t -> tenure_age:int -> young
(** Its pauses are named ["NAME young"] and ["NAME allocation failure"].
    Also sets the heap's mutator reserve to an eighth of its regions (at
    least 4). *)

val needs_full : young -> bool
(** The free pool is down to the full compaction's reserve (a 32nd of the
    regions, at least 3): a pause should compact the heap. *)

val remember : young -> src:Gcr_heap.Obj_model.id -> new_target:Gcr_heap.Obj_model.id -> unit
(** The remembered-set part of the write barrier: an old object that
    receives a reference is remembered. *)

val after_refill :
  young ->
  collect:(unit -> unit) ->
  otherwise:(Gcr_engine.Engine.thread -> (unit -> unit) -> unit) ->
  Gcr_engine.Engine.thread ->
  cont:(unit -> unit) ->
  unit
(** Counts an eden region.  The thread parks while a pause is pending,
    or opens a young pause that runs [collect] once the eden budget or
    the survivor reserve is reached; otherwise [otherwise th cont]
    decides. *)

val on_out_of_regions :
  young -> collect:(unit -> unit) -> Gcr_engine.Engine.thread -> retry:(unit -> unit) -> unit
(** Parks the thread and, unless a pause is pending, opens an
    allocation-failure pause that runs [collect]. *)

val resume_waiters : young -> unit
(** Resumes the parked threads without closing a pause. *)

val count : young -> marked:int -> copied:int -> unit
(** Adds objects marked and words copied to the counters {!stats}
    reports; G1 counts its final marks and mixed copies here. *)

val scavenge : young -> on_done:(promo_failed:bool -> unit) -> unit
(** Inside a pause: the {!Scavenge} of eden and survivors.  Counts its
    copies and, unless promotion failed, rebuilds the remembered set. *)

val full_compact : young -> on_done:(unit -> unit) -> unit
(** Inside a pause: the {!Full_compact}.  Counts its marks and clears the
    remembered set. *)

val end_pause : young -> ran_full:bool -> unit
(** Counts the pause, restarts the eden budget from the headroom left
    above the survivor reserve, and re-derives the mutator reserve. *)

val over_limit : young -> limit:int -> bool
(** Counts a collection for the GC-overhead limit: [true] once [limit] of
    them in a row left under 2% of the heap free
    ({!Gc_types.low_free}). *)

val release : young -> unit
(** Closes the pause and resumes the parked threads. *)

val stats : young -> Gc_types.stats
