module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Allocator = Gcr_heap.Allocator
module Vec = Gcr_util.Vec
module Ivec = Gcr_util.Ivec
module Cost_model = Gcr_mach.Cost_model

type result = {
  objects_marked : int;
  words_live : int;
  edges : int;
}

(* Budget of objects handled per worker slice; small enough that pause
   attribution and parallelism stay fine-grained. *)
let slice_budget = 64

(* Place one survivor, refilling the target once; a second miss, or no
   free region, is an OOM. *)
let rec place (ctx : Gc_types.ctx) target id ~retried =
  match Allocator.current_region target with
  | Some dst when Heap.place_object ctx.Gc_types.heap id dst -> ()
  | Some _ | None ->
      if retried then ctx.Gc_types.oom "full compaction could not place a survivor"
      else begin
        (match Allocator.refill target with
        | None -> ctx.Gc_types.oom "full compaction found no free region"
        | Some _ -> ());
        place ctx target id ~retried:true
      end

let run (ctx : Gc_types.ctx) ~pool ~on_done =
  let heap = ctx.Gc_types.heap in
  Vec.iter Allocator.retire ctx.Gc_types.allocators;
  ignore (Heap.begin_mark_epoch heap);
  Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:false
      ~update_region_live:true ()
  in
  !(ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  (* Compaction state, filled in between the two phases: every marked
     object, in region order and then each region's object order. *)
  let survivors = ctx.Gc_types.survivors in
  let cursor = ref 0 in
  let target = Allocator.create heap ~space:Region.Old in
  (* One walk per region frees the unmarked residents, collects the
     survivors and releases the region. *)
  let prepare_compaction () =
    Ivec.clear survivors;
    Heap.iter_regions
      (fun r ->
        if not (Region.space_equal r.Region.space Region.Free) then begin
          Heap.sweep_unmarked heap r ~into:survivors;
          Heap.release_region_keep_objects heap r
        end)
      heap
  in
  let compact_per_word = ctx.Gc_types.cost.Cost_model.compact_per_word in
  let update_ref_per_edge = ctx.Gc_types.cost.Cost_model.update_ref_per_edge in
  (* Survivors go a run at a time into the current region; the one that
     does not fit takes [place]'s refill and OOM path on its own. *)
  let compact_slice ~worker:_ =
    let start = !cursor in
    let stop = min (Ivec.length survivors) (start + slice_budget) in
    while !cursor < stop do
      (match Allocator.current_region target with
      | Some dst -> cursor := Heap.place_run heap dst survivors ~pos:!cursor ~stop
      | None -> ());
      if !cursor < stop then begin
        place ctx target (Ivec.get survivors !cursor) ~retried:false;
        incr cursor
      end
    done;
    let cost = ref 0 in
    for i = start to stop - 1 do
      let id = Ivec.get survivors i in
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
