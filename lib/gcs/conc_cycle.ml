module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type phase = Idle | Marking | Evacuating | Updating

type t = {
  ctx : Gc_types.ctx;
  pool : Worker_pool.t;
  garbage_threshold : float;
  reserve_regions : unit -> int;
      (** re-evaluated at cset selection so controller-driven heap resizes
          are seen by the very next cycle *)
  concurrent_copy : bool;
  old_only : bool;  (** restrict the cset to old regions (generational mode) *)
  mutable phase : phase;
  mutable in_flight : bool;  (** set at [start], cleared when the cycle ends
                                 (the phase alone misses the window before
                                 the init-mark pause opens) *)
  mutable tracer : Tracer.t option;  (** present while a cycle is in flight *)
  mutable cycles : int;
  mutable words_copied : int;
  mutable objects_marked : int;
}

let slice_budget = 64

let update_refs_chunk = 256  (** edges fixed up per worker slice *)

let create ctx ~pool ~garbage_threshold ~reserve_regions ~concurrent_copy ?(old_only = false) () =
  {
    ctx;
    pool;
    garbage_threshold;
    reserve_regions;
    concurrent_copy;
    old_only;
    phase = Idle;
    in_flight = false;
    tracer = None;
    cycles = 0;
    words_copied = 0;
    objects_marked = 0;
  }

let phase t = t.phase

let[@inline] active t = match t.phase with Idle -> false | Marking | Evacuating | Updating -> true

let cycles_completed t = t.cycles

let words_copied t = t.words_copied

let objects_marked t = t.objects_marked

let satb_publish t id =
  match (t.phase, t.tracer) with
  | Marking, Some tracer -> Tracer.add_root tracer id
  | (Marking | Idle | Evacuating | Updating), _ -> ()

let mark_new_object t id =
  match t.phase with
  | Marking -> Heap.set_marked t.ctx.Gc_types.heap id
  | Idle | Evacuating | Updating -> ()

(* Greedy cset selection: garbage-richest regions first, bounded by the
   copy headroom the free pool can provide. *)
let select_cset t =
  let heap = t.ctx.Gc_types.heap in
  let region_words = Heap.region_words heap in
  let candidates = ref [] in
  let eligible (r : Region.t) =
    match r.Region.space with
    | Region.Old -> true
    | Region.Eden | Region.Survivor -> not t.old_only
    | Region.Free -> false
  in
  Heap.iter_regions
    (fun r ->
      match eligible r with
      | true ->
          if (not r.Region.pinned) && r.Region.used_words > 0 then begin
            let garbage = r.Region.used_words - r.Region.live_words in
            (* Relative to used words, not region capacity: retired
               allocation buffers leave many thinly used regions whose
               absolute garbage is small but which would otherwise
               accumulate as permanent waste. *)
            if float_of_int garbage > t.garbage_threshold *. float_of_int r.Region.used_words
            then candidates := r :: !candidates
          end
      | false -> ())
    heap;
  let by_liveness a b = compare a.Region.live_words b.Region.live_words in
  let sorted = List.sort by_liveness !candidates in
  (* Rolling to-space budget: evacuating a region costs its live words but
     releases the whole region back to the pool, so — processed in
     ascending-liveness order — each garbage-rich region grows the budget
     for the next.  Only the initial headroom is bounded by the free
     pool. *)
  let budget = ref (max 0 (Heap.free_regions heap - t.reserve_regions ()) * region_words) in
  List.filter
    (fun r ->
      if r.Region.live_words <= !budget then begin
        (* copies consume live words; the whole region comes back *)
        budget := !budget - r.Region.live_words + region_words;
        true
      end
      else false)
    sorted

let start t ~pause ~on_done =
  if t.in_flight then invalid_arg "Conc_cycle.start: cycle in flight";
  t.in_flight <- true;
  let ctx = t.ctx in
  let heap = ctx.Gc_types.heap in
  let finish ~evac_failed =
    t.phase <- Idle;
    t.in_flight <- false;
    t.tracer <- None;
    t.cycles <- t.cycles + 1;
    on_done ~evac_failed
  in
  pause "init-mark" (fun release ->
      ignore (Heap.begin_mark_epoch heap);
      Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
      let tracer =
        Tracer.create ctx ~stack:ctx.Gc_types.conc_marks ~use_scratch:false
          ~update_region_live:true ()
      in
      t.tracer <- Some tracer;
      t.phase <- Marking;
      let nroots = ref 0 in
      !(ctx.Gc_types.iter_roots) (fun id ->
          incr nroots;
          Tracer.add_root tracer id);
      Worker_pool.run_phase t.pool ~phase:Gcr_obs.Event.Root_scan
        ~work:(Worker_pool.one_shot (Gc_types.root_scan_cost !nroots))
        ~on_done:(fun () ->
          release ();
          (* Concurrent marking: SATB publishes keep arriving while this
             phase drains; stragglers are caught at final mark.  Marking
             concurrently is dearer than STW marking. *)
          let penalty = ctx.Gc_types.cost.Cost_model.concurrent_mark_penalty_pct in
          let mark_work ~worker:_ =
            let c = Tracer.drain tracer ~budget:slice_budget in
            c + (c * penalty / 100)
          in
          Worker_pool.run_phase t.pool ~phase:Gcr_obs.Event.Mark ~work:mark_work
            ~on_done:(fun () ->
              pause "final-mark" (fun release ->
                  !(ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
                  Worker_pool.run_phase t.pool ~phase:Gcr_obs.Event.Mark ~work:mark_work
                    ~on_done:(fun () ->
                      t.objects_marked <- t.objects_marked + Tracer.objects_marked tracer;
                      Vec.iter Allocator.retire ctx.Gc_types.allocators;
                      let cset = select_cset t in
                      let target = Allocator.create heap ~space:Region.Old in
                      let evacuator =
                        Evacuator.create ctx ~concurrent:t.concurrent_copy
                          ~choose_target:(fun _ -> target)
                      in
                      List.iter (Evacuator.add_region evacuator) cset;
                      t.phase <- Evacuating;
                      release ();
                      let evac_failed = ref false in
                      let evac_work ~worker:_ =
                        if !evac_failed then 0
                        else
                          try Evacuator.step evacuator ~budget:slice_budget
                          with Evacuator.Evacuation_failure ->
                            evac_failed := true;
                            0
                      in
                      Worker_pool.run_phase t.pool ~phase:Gcr_obs.Event.Evacuate
                        ~work:evac_work ~on_done:(fun () ->
                          Allocator.retire target;
                          t.words_copied <- t.words_copied + Evacuator.words_copied evacuator;
                          if !evac_failed then finish ~evac_failed:true
                          else begin
                            t.phase <- Updating;
                            let per_edge =
                              ctx.Gc_types.cost.Cost_model.update_ref_per_edge
                            in
                            let remaining = ref (Tracer.edges_seen tracer) in
                            let update_work ~worker:_ =
                              if !remaining <= 0 then 0
                              else begin
                                let chunk = min update_refs_chunk !remaining in
                                remaining := !remaining - chunk;
                                chunk * per_edge
                              end
                            in
                            Worker_pool.run_phase t.pool
                              ~phase:Gcr_obs.Event.Update_refs ~work:update_work
                              ~on_done:(fun () -> finish ~evac_failed:false)
                          end))))))
