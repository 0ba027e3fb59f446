module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type result = {
  objects_marked : int;
  words_live : int;
  edges : int;
}

(* Budget of objects handled per worker slice; small enough that pause
   attribution and parallelism stay fine-grained. *)
let slice_budget = 64

let run (ctx : Gc_types.ctx) ~pool ~on_done =
  let heap = ctx.Gc_types.heap in
  Vec.iter Allocator.retire ctx.Gc_types.allocators;
  ignore (Heap.begin_mark_epoch heap);
  Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
  let tracer =
    Tracer.create ctx ~use_scratch:false ~update_region_live:true ()
  in
  !(ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  (* Compaction state, filled in between the two phases: every marked
     object, in region order and then each region's object order. *)
  let survivors = ref [||] in
  let n_survivors = ref 0 in
  let cursor = ref 0 in
  let target = Allocator.create heap ~space:Region.Old in
  (* One walk per region frees the unmarked residents, collects the
     survivors and releases the region; the mark phase has counted exactly
     the survivors, so their array is allocated once at its final size. *)
  let prepare_compaction () =
    let into = Array.make (Tracer.objects_marked tracer) Obj_model.null in
    let n = ref 0 in
    Heap.iter_regions
      (fun r ->
        if not (Region.space_equal r.Region.space Region.Free) then begin
          n := Heap.sweep_unmarked heap r ~into ~pos:!n;
          Heap.release_region_keep_objects heap r
        end)
      heap;
    survivors := into;
    n_survivors := !n
  in
  let rec place id ~retried =
    match Allocator.current_region target with
    | Some dst when Heap.place_object heap id dst -> ()
    | Some _ | None ->
        if retried then ctx.Gc_types.oom "full compaction could not place a survivor"
        else begin
          (match Allocator.refill target with
          | None -> ctx.Gc_types.oom "full compaction found no free region"
          | Some _ -> ());
          place id ~retried:true
        end
  in
  let compact_per_word = ctx.Gc_types.cost.Cost_model.compact_per_word in
  let update_ref_per_edge = ctx.Gc_types.cost.Cost_model.update_ref_per_edge in
  let compact_slice ~worker:_ =
    let survivors = !survivors in
    let cost = ref 0 in
    let stop = min !n_survivors (!cursor + slice_budget) in
    while !cursor < stop do
      let id = survivors.(!cursor) in
      incr cursor;
      place id ~retried:false;
      cost :=
        !cost
        + (compact_per_word * Heap.obj_size heap id)
        + (update_ref_per_edge * Heap.obj_nfields heap id)
    done;
    !cost
  in
  let mark_slice ~worker:_ = Tracer.drain tracer ~budget:slice_budget in
  Worker_pool.run_phase pool ~phase:Gcr_obs.Event.Mark ~work:mark_slice ~on_done:(fun () ->
      prepare_compaction ();
      Worker_pool.run_phase pool ~phase:Gcr_obs.Event.Compact ~work:compact_slice
        ~on_done:(fun () ->
          Allocator.retire target;
          on_done
            {
              objects_marked = Tracer.objects_marked tracer;
              words_live = Tracer.words_marked tracer;
              edges = Tracer.edges_seen tracer;
            }))
