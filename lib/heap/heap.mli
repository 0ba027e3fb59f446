(** The simulated heap: a struct-of-arrays object store plus a flat array
    of regions.

    Responsibilities kept here: object identity, bump allocation inside
    regions, the free-region pool, space accounting, and mark epochs.
    Policy — when to collect, what to evacuate, barrier costs — lives in the
    collectors ([Gcr_gcs]); work/time attribution lives in the engine.

    Objects are plain [Obj_model.id] ints everywhere; their attributes live
    in the heap's {!Obj_model.store} and are read through the delegating
    accessors below (or directly through {!store} on mark-loop hot
    paths). *)

type t

val create : ?obs:Gcr_obs.Obs.t -> capacity_words:int -> region_words:int -> unit -> t
(** [capacity_words] is rounded down to a whole number of regions; at least
    two regions are required. *)

val reset : t -> capacity_words:int -> region_words:int -> unit
(** Rewind a used heap to the state {!create} would produce for this
    geometry, keeping the object store's grown capacities (the warm
    execution path's reuse).  Re-emits the [heap_init] event into the
    attached spine, so a warm run folds the identical event sequence a
    fresh one would.  Safe after aborted runs; same validation as
    {!create}. *)

val store : t -> Obj_model.store
(** The underlying object store, for hot loops and tests. *)

val set_capacity : t -> capacity_words:int -> cause_id:int -> int
(** Resize the region array at a safepoint while the heap stays live —
    the mechanism under dynamic heap-sizing controllers.  Growth appends
    fresh free regions; shrink drops only a trailing run of free regions
    (region indices are baked into the object store), so a request below
    the highest non-free region — or below two regions — clamps instead
    of raising.  Returns the capacity actually in effect, and emits a
    [limit-change] event (tagged with the interned [cause_id]) iff the
    geometry moved.  Live objects, counters, and {!history_digest} are
    untouched. *)

(** {1 Geometry and accounting} *)

val region_words : t -> int

val total_regions : t -> int

val free_regions : t -> int

val capacity_words : t -> int

val used_words : t -> int
(** Sum of bump cursors over non-free regions (includes unreclaimed
    garbage). *)

val space_used_words : t -> Region.space -> int

val region : t -> int -> Region.t

val iter_regions : (Region.t -> unit) -> t -> unit

val regions_in_space : t -> Region.space -> Region.t list
(** Allocates a fresh list by scanning every region — test/debug use only;
    hot paths should use {!regions_in_space_count}. *)

val regions_in_space_count : t -> Region.space -> int
(** Number of regions currently labelled with that space.  O(1) from
    maintained counters — the allocation-free replacement for
    [List.length (regions_in_space t space)] in collector pacing. *)

(** {1 Objects} *)

val is_live : t -> Obj_model.id -> bool
(** Allocation-free; false for [null], out-of-range and reclaimed ids. *)

val live_objects : t -> int
(** Number of live objects. *)

val live_words_exact : t -> int
(** Sum of sizes of live objects — the "true" live+floating footprint,
    cheap enough to expose for tests and heuristics. *)

(** Delegating accessors over the object store.  All of them assume a live
    id; check {!is_live} first when the id's provenance is uncertain. *)

val obj_size : t -> Obj_model.id -> int

val obj_region : t -> Obj_model.id -> int
(** Index of the owning region. *)

val obj_space : t -> Obj_model.id -> Region.space
(** Space of the owning region. *)

val obj_age : t -> Obj_model.id -> int

val set_obj_age : t -> Obj_model.id -> int -> unit

val obj_nfields : t -> Obj_model.id -> int

val field : t -> Obj_model.id -> int -> Obj_model.id

val set_field : t -> Obj_model.id -> int -> Obj_model.id -> unit

val iter_fields : t -> Obj_model.id -> (Obj_model.id -> unit) -> unit

val obj_remembered : t -> Obj_model.id -> bool

val set_obj_remembered : t -> Obj_model.id -> bool -> unit

val obj_serial : t -> Obj_model.id -> int
(** Birth serial: never reused even when the id is; see
    {!Obj_model.serial}. *)

(** {1 Mark epochs} *)

val begin_mark_epoch : t -> int
(** Increments and returns the epoch; objects whose mark slot equals the
    current epoch count as marked. *)

val current_epoch : t -> int

val is_marked : t -> Obj_model.id -> bool

val set_marked : t -> Obj_model.id -> unit

val begin_scratch_epoch : t -> int
(** Independent epoch for the scratch mark slot, used by stop-the-world
    scavenges so they do not disturb an in-flight concurrent marking. *)

val current_scratch_epoch : t -> int

val is_scratch_marked : t -> Obj_model.id -> bool

val set_scratch_marked : t -> Obj_model.id -> unit

(** {1 Allocation and movement} *)

val take_free_region : t -> space:Region.space -> Region.t option
(** Removes a region from the free pool and labels it.  Requests for
    [Eden] (mutator allocation) fail once the pool is at or below the
    allocation reserve; GC copy targets ([Survivor]/[Old]) may always
    drain the pool. *)

val set_alloc_reserve : t -> int -> unit
(** Free regions withheld from mutator allocation so collections always
    have copy headroom (to-space / evacuation reserve).  Collectors adjust
    it with their policies; 0 initially. *)

val alloc_reserve : t -> int

val alloc_in_region : t -> Region.t -> size:int -> nfields:int -> Obj_model.id
(** Bump-allocates a fresh object, or [Obj_model.null] if the region
    cannot fit [size] words.  Updates cumulative allocation statistics.
    Allocation-free on the host. *)

val move_object : t -> Obj_model.id -> Region.t -> bool
(** Evacuate: the object's storage moves to the destination region (id is
    unchanged); [false] if the destination cannot fit it.  The source
    region's cursor is left as-is — its space is garbage until the region
    is released. *)

val release_log : (int -> string -> unit) ref
(** Debug hook: called with (region index, caller tag) on every release. *)

val release_region : t -> Region.t -> unit
(** Reclaims the region: every object still resident dies (its field
    extent is recycled); the region returns to the free pool. *)

val sweep_unmarked : t -> Region.t -> into:Gcr_util.Ivec.t -> unit
(** The sweep half of mark-sweep, fused with survivor collection: walking
    the region's residents in object order, kills each one not marked in
    the current epoch and pushes each marked one onto [into]. *)

val free_object : t -> Obj_model.id -> unit
(** Kill one object in place (RC reclamation).  The owning region keeps
    its [used_words] — the dead words are the fragmentation that drives
    later evacuation — and its object vec keeps the stale id, so the
    caller must {!compact_region_objects} every region it freed into
    before the pause ends (id recycling would otherwise alias the stale
    entry). *)

val compact_region_objects : t -> Region.t -> unit
(** Rebuild the region's object vec to exactly its live residents.  Must
    run in the same pause as the {!free_object} calls it cleans up
    after. *)

val release_region_keep_objects : t -> Region.t -> unit
(** Returns the region to the free pool {e without} touching the object
    store.  Used by sliding compaction, which sweeps dead objects out of
    each region and releases it, then re-places the survivors with
    {!place_object}.  The caller must re-place every resident object. *)

val place_object : t -> Obj_model.id -> Region.t -> bool
(** Like {!move_object}: re-homes an object during compaction. *)

val place_run : t -> Region.t -> Gcr_util.Ivec.t -> pos:int -> stop:int -> int
(** [place_run t dst objs ~pos ~stop] places [objs] from index [pos] on,
    in order, into [dst] while each fits, and returns the index of the
    first one that does not ([stop] when all of them fit).  The result is
    exactly that of {!place_object} called on each in turn up to the first
    [false].  Raises the same [Invalid_argument] as {!move_object} when
    [dst] is free.  The placed objects' total size and field count are
    left in {!placed_words} and {!placed_fields}. *)

val placed_words : t -> int
(** Total size of the objects the last {!place_run} placed (0 before
    any). *)

val placed_fields : t -> int
(** Total field count of the objects the last {!place_run} placed (0
    before any). *)

val iter_resident_objects : t -> Region.t -> (Obj_model.id -> unit) -> unit
(** Live objects whose storage is currently in this region. *)

(** {1 Cumulative statistics} *)

val words_allocated_total : t -> int

val objects_allocated_total : t -> int

val history_digest : t -> int
(** Commutative hash of the complete mutation history: every allocation and
    every {!set_field} (keyed by birth serials, with the overwritten value
    folded in) since the heap was created.  Collectors never affect it —
    object moves keep ids and GCs write no fields — so two runs showing the
    same digest have performed identical mutator work, whichever collector
    ran underneath.  This is the progress coordinate the live-set
    differential oracle compares safepoints at: totals such as
    (packets, allocations) are not enough once two mutator threads race,
    because collector-dependent scheduling can reorder cross-thread writes
    into a different — but equally correct — heap graph. *)

(** {1 Reachability (for tests and ground truth)} *)

val reachable_from : t -> Obj_model.id list -> (Obj_model.id, unit) Hashtbl.t
(** BFS over the object graph from the given roots; only live objects are
    traversed.  Begins a fresh scratch epoch (the visited set is the
    scratch mark slot), so do not call it while a scratch-marking scavenge
    is in flight. *)
