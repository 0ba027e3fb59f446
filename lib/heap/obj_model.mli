(** The simulated object model, stored struct-of-arrays.

    Objects are real graph nodes: a size in words and reference fields
    holding ids of other objects, which collectors traverse when marking.
    Identity is stable across moves — "copying" an object updates which
    region owns its words (and charges the copy cost), but never its id, so
    simulated references need no rewriting.  Reference-update costs are
    charged from edge counts instead (see DESIGN.md §5).

    The representation is data-oriented: per-object attributes (size,
    region, age, mark, scratch, liveness, remembered bit) are parallel flat
    [int array]s indexed by id, and every object's reference fields are a
    contiguous {e extent} of a single shared arena of ids.  The tracer's
    transitive-mark loop — the kernel behind every collector — therefore
    walks dense int arrays with no per-object host allocation, and the mark
    bits of hot objects share cache lines.  Dead objects' field extents are
    recycled through exact-size free lists; zero-field objects consume no
    arena words at all. *)

type id = int
(** Object identifier.  [null] (= 0) is the absent reference. *)

val null : id

val is_null : id -> bool

val header_words : int
(** 2: every object pays a two-word header, as in HotSpot. *)

val fields_capacity : size:int -> int
(** Largest legal [nfields] for an object of [size] words. *)

type store
(** The struct-of-arrays object store.  One per simulated heap. *)

val create_store : unit -> store
(** Fresh store; id 0 (the null reference) is pre-reserved and dead. *)

val reset_store : store -> unit
(** Rewind to the post-{!create_store} state, keeping the grown array
    capacities: the id counter, birth-serial counter, free lists, and
    arena frontier all restart from zero, and the used arena prefix is
    re-zeroed (bump-carved extents must read as [null], exactly as fresh
    storage does).  After a reset the store behaves bit-identically to a
    fresh one — the warm execution path's reuse contract. *)

val alloc : store -> size:int -> nfields:int -> region:int -> id
(** A fresh, live, unmarked object of age 0.  [nfields] must fit in
    [size - header_words]; fields start [null].  Recycles the most
    recently freed id when one exists (every per-id attribute is
    rewritten), otherwise takes a fresh monotonically increasing id —
    so the store is sized by the peak live population, not the total
    allocation count. *)

val free : store -> id -> unit
(** Kill the object and recycle its field extent and id.  Accessors
    other than {!is_live} must not be used on a dead id, and holding a
    dead id across a later {!alloc} is a caller bug: the id may now name
    a different object. *)

val is_live : store -> id -> bool
(** Allocation-free; false for [null], out-of-range and freed ids. *)

(** {1 Per-object attributes}

    All accessors assume a live id (no bounds or liveness checks). *)

val size : store -> id -> int

val region : store -> id -> int

val set_region : store -> id -> int -> unit

val age : store -> id -> int

val set_age : store -> id -> int -> unit

val mark : store -> id -> int
(** Epoch of the last mark that reached this object; -1 when fresh. *)

val set_mark : store -> id -> int -> unit

val scratch : store -> id -> int
(** Second, independent mark slot: lets a stop-the-world scavenge run
    while a concurrent marking epoch is in flight (as G1's young
    collections do during concurrent marking). *)

val set_scratch : store -> id -> int -> unit

val serial : store -> id -> int
(** Birth serial: strictly increasing across all allocations and never
    reused, unlike ids.  The stable identity for deferred RC work and
    cross-collector live-set comparison. *)

val remembered : store -> id -> bool
(** Coarse per-object remembered-set bit. *)

val set_remembered : store -> id -> bool -> unit

(** {1 Reference fields} *)

val nfields : store -> id -> int

val field_get : store -> id -> int -> id

val field_set : store -> id -> int -> id -> unit

val iter_fields : store -> id -> (id -> unit) -> unit

val exists_fields : store -> id -> (id -> bool) -> bool
(** Left-to-right, short-circuiting (the [Array.exists] contract). *)

val field_extent : store -> id -> int * int
(** [(offset, nfields)] — exposed for the arena model tests. *)

val arena_used : store -> int
(** Bump frontier of the field arena in words (recycled extents are below
    it) — exposed for tests. *)

(** {1 Planes}

    The store's flat arrays themselves, for a mark loop that reads them
    through locals hoisted once per slice instead of through the store
    record once per object.  A plane is the live storage, not a copy, but
    {!alloc} may replace it with a grown one: a plane read is valid only
    until the next {!alloc} ({!free} replaces none).  Callers only read
    the planes, except that a mark loop may store its epoch through
    {!mark_plane} or {!scratch_plane}, as {!set_mark} and {!set_scratch}
    would, and a compaction's placement may store an object's new home
    through {!region_plane}, as {!set_region} would. *)

val id_bound : store -> int
(** Every id ever handed out is below it. *)

val flags_plane : store -> int array

val size_plane : store -> int array

val region_plane : store -> int array

val mark_plane : store -> int array

val scratch_plane : store -> int array

val nfields_plane : store -> int array

val foff_plane : store -> int array
(** Each object's field-extent offset in {!arena_plane}: field [i] of
    [id] is [arena.(foff.(id) + i)]. *)

val arena_plane : store -> int array

val live_in : flags:int array -> bound:int -> id -> bool
(** {!is_live} over a hoisted {!flags_plane} and {!id_bound}. *)
