(** Bump allocator with a thread-local current region.

    This is the simulator's TLAB analogue: each mutator thread owns one, as
    does each GC worker that copies objects.  Fast path bumps the current
    region; when it cannot fit the request, a fresh region is taken from
    the free pool (the caller is told, so it can charge the refill cost and
    let the collector's policy run). *)

type t

type outcome =
  | Allocated of { obj : Obj_model.id; refilled : bool }
  | Out_of_regions
      (** the free pool is empty; the caller must trigger a collection,
          stall, or fail with OOM *)

val create : Heap.t -> space:Region.space -> t

val space : t -> Region.space

val alloc : t -> size:int -> nfields:int -> outcome

val retire : t -> unit
(** Drop the current region (it keeps its space label and contents); the
    next allocation will refill.  Called at collection boundaries. *)

val refill : t -> Region.t option
(** Retire the current region and take a fresh one from the free pool,
    making it current.  Copy targets driven by [Heap.move_object] (which
    bypasses [alloc]) use this; [None] when the pool is empty. *)

val current_region : t -> Region.t option

val move_object : t -> Obj_model.id -> bool
(** Copy-target fast path: {!Heap.move_object} into the current region,
    or, when it does not fit, into a fresh one taken with {!refill}.
    [false] when the free pool is empty. *)
