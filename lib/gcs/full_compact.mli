(** Shared full-heap stop-the-world mark-compact.

    The fallback collection of Serial, Parallel, SerialPT, G1, Shenandoah,
    GenShen and LXR: marks everything reachable, sweeps dead objects from
    the table, then slides the survivors into densely packed old regions.
    Requires no free-pool headroom (compaction works in place), so it
    always succeeds when the live set fits in the heap at all.

    Must be called while a pause is open; the work itself runs on the given
    worker pool (whose cycles are therefore attributed to STW). *)

type result = {
  objects_marked : int;
  words_live : int;
  edges : int;
}

val run : Gc_types.ctx -> pool:Worker_pool.t -> on_done:(result -> unit) -> unit
(** Retires all registered allocators, relabels every surviving region as
    [Old], and leaves the free pool holding all unneeded regions. *)
