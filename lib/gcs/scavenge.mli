(** The young-generation copying collection (scavenge) of the young
    generation ({!Stw_gen.young}) that Serial, Parallel, SerialPT, G1 and
    GenShen share.

    Must run inside an open pause.  Traces eden+survivor from the workload
    roots and the remembered set; each reached object is copied to a
    survivor region, or promoted to old space once its age reaches
    [tenure_age].  On success the evacuated young regions are released.
    On promotion failure (free pool exhausted mid-copy) the heap is left
    half-scavenged but consistent, and the caller is expected to run the
    full compaction. *)

type result = {
  promo_failed : bool;
  promoted_with_fields : Gcr_heap.Obj_model.id list;
      (** freshly tenured objects that have reference fields — candidates
          for the rebuilt remembered set *)
  objects_copied : int;
  words_copied : int;
}

val run :
  Gc_types.ctx ->
  pool:Worker_pool.t ->
  remset:Remset.t ->
  tenure_age:int ->
  on_done:(result -> unit) ->
  unit
