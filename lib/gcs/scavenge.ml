module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type result = {
  promo_failed : bool;
  promoted_with_fields : Obj_model.id list;
  objects_copied : int;
  words_copied : int;
}

let slice_budget = 64

let is_young (r : Region.t) =
  match r.Region.space with
  | Region.Eden | Region.Survivor -> true
  | Region.Free | Region.Old -> false

let run (ctx : Gc_types.ctx) ~pool ~remset ~tenure_age ~on_done =
  let heap = ctx.Gc_types.heap in
  let cost_model = ctx.Gc_types.cost in
  Vec.iter Allocator.retire ctx.Gc_types.allocators;
  let cset = ref [] in
  Heap.iter_regions (fun r -> if is_young r then cset := r :: !cset) heap;
  ignore (Heap.begin_scratch_epoch heap);
  let survivor_target = Allocator.create heap ~space:Region.Survivor in
  let old_target = Allocator.create heap ~space:Region.Old in
  let promoted = ref [] in
  let promo_failed = ref false in
  let objects_copied = ref 0 in
  let words_copied = ref 0 in
  let on_mark id =
    let age = Heap.obj_age heap id in
    let tenured = age >= tenure_age in
    if not (Allocator.move_object (if tenured then old_target else survivor_target) id) then
      raise (Tracer.Trace_failure "promotion failure");
    Heap.set_obj_age heap id (age + 1);
    if tenured && Heap.obj_nfields heap id > 0 then promoted := id :: !promoted;
    incr objects_copied;
    let size = Heap.obj_size heap id in
    words_copied := !words_copied + size;
    cost_model.Cost_model.copy_per_object + (cost_model.Cost_model.copy_per_word * size)
  in
  let tracer =
    Tracer.create ctx ~stack:ctx.Gc_types.pause_marks ~use_scratch:true
      ~update_region_live:false
      ~should_visit:(fun id -> is_young (Heap.region heap (Heap.obj_region heap id)))
      ~on_mark ()
  in
  (* Roots: workload roots plus the remembered set (dirty-card scan). *)
  let root_cost = ref 0 in
  !(ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  Remset.iter remset (fun id ->
      if Heap.is_live heap id then begin
        root_cost :=
          !root_cost + 30 + (cost_model.Cost_model.mark_per_edge * Heap.obj_nfields heap id);
        Heap.iter_fields heap id (Tracer.add_root tracer)
      end);
  let work ~worker:_ =
    if !promo_failed then 0
    else if !root_cost > 0 then begin
      let c = !root_cost in
      root_cost := 0;
      c
    end
    else
      try Tracer.drain tracer ~budget:slice_budget
      with Tracer.Trace_failure _ ->
        promo_failed := true;
        0
  in
  Worker_pool.run_phase pool ~phase:Gcr_obs.Event.Evacuate ~work ~on_done:(fun () ->
      Allocator.retire survivor_target;
      Allocator.retire old_target;
      if not !promo_failed then List.iter (Heap.release_region heap) !cset;
      on_done
        {
          promo_failed = !promo_failed;
          promoted_with_fields = !promoted;
          objects_copied = !objects_copied;
          words_copied = !words_copied;
        })
