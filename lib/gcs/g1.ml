module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Engine = Gcr_engine.Engine
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type config = {
  stw_workers : int;
  conc_workers : int;
  tenure_age : int;
  initiating_occupancy : float;
  mixed_live_threshold : float;
}

let default_config ~cpus =
  let stw = if cpus <= 8 then cpus else 8 + ((cpus - 8) * 5 / 8) in
  {
    stw_workers = stw;
    conc_workers = max 1 (stw / 4);
    tenure_age = 2;
    initiating_occupancy = 0.45;
    mixed_live_threshold = 0.85;
  }

type mark_state =
  | Mark_idle
  | Mark_running of { tracer : Tracer.t; session : int }
  | Mark_drained of { tracer : Tracer.t; session : int }
      (** concurrent drain finished; final mark runs in the next pause *)

type state = {
  ctx : Gc_types.ctx;
  config : config;
  stw_pool : Worker_pool.t;
  conc_pool : Worker_pool.t;
  remset : Remset.t;
  waiters : (Engine.thread * (unit -> unit)) Vec.t;
  mutable gc_pending : bool;
  mutable eden_regions_since_gc : int;
  mutable eden_budget : int;
  mutable last_survivor_regions : int;
  mutable low_free_streak : int;
  mutable marking : mark_state;
  mutable mark_session : int;  (** bumping it cancels in-flight draining *)
  mutable mixed_pending : int list;  (** old region indices awaiting mixed evac *)
  mutable collections : int;
  mutable full_collections : int;
  mutable words_copied : int;
  mutable objects_marked : int;
  mutable concurrent_cycles : int;
}

let slice_budget = 64

let total_regions s = Heap.total_regions s.ctx.Gc_types.heap

let free_regions s = Heap.free_regions s.ctx.Gc_types.heap

let survivor_reserve s = max 2 ((s.last_survivor_regions * 2) + 1)

let full_gc_reserve s = max 3 (total_regions s / 32)

let should_collect s =
  s.eden_regions_since_gc >= s.eden_budget || free_regions s <= survivor_reserve s

let recompute_eden_budget s =
  let headroom = free_regions s - survivor_reserve s in
  s.eden_budget <- max 2 (headroom / 2)

let resume_waiters s =
  let pending = Vec.to_list s.waiters in
  Vec.clear s.waiters;
  List.iter (fun (th, cont) -> Engine.resume s.ctx.Gc_types.engine th cont) pending

let enqueue_waiter s th cont =
  Engine.park s.ctx.Gc_types.engine th;
  Vec.push s.waiters (th, cont)

let marking_active s =
  match s.marking with Mark_running _ | Mark_drained _ -> true | Mark_idle -> false

let cancel_marking s =
  s.mark_session <- s.mark_session + 1;
  s.marking <- Mark_idle;
  s.mixed_pending <- []

(* ---------- concurrent marking ---------- *)

let start_concurrent_mark s =
  let heap = s.ctx.Gc_types.heap in
  ignore (Heap.begin_mark_epoch heap);
  Heap.iter_regions (fun r -> r.Region.live_words <- 0) heap;
  let tracer =
    Tracer.create s.ctx ~stack:s.ctx.Gc_types.conc_marks ~use_scratch:false
      ~update_region_live:true ()
  in
  !(s.ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  s.mark_session <- s.mark_session + 1;
  let session = s.mark_session in
  s.marking <- Mark_running { tracer; session };
  s.concurrent_cycles <- s.concurrent_cycles + 1;
  let work ~worker:_ =
    if s.mark_session <> session then 0 else Tracer.drain tracer ~budget:slice_budget
  in
  Worker_pool.run_phase s.conc_pool ~phase:Gcr_obs.Event.Mark ~work ~on_done:(fun () ->
      if s.mark_session = session then s.marking <- Mark_drained { tracer; session })

(* Final mark, inside a pause: re-scan roots (SATB leaves the stack
   non-empty), drain on the STW pool, then pick the mixed candidates. *)
let run_final_mark s tracer k =
  let heap = s.ctx.Gc_types.heap in
  !(s.ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
  let work ~worker:_ = Tracer.drain tracer ~budget:slice_budget in
  Worker_pool.run_phase s.stw_pool ~phase:Gcr_obs.Event.Mark ~work ~on_done:(fun () ->
      s.objects_marked <- s.objects_marked + Tracer.objects_marked tracer;
      let region_words = Heap.region_words heap in
      let candidates = ref [] in
      Heap.iter_regions
        (fun r ->
          match r.Region.space with
          | Region.Old ->
              if
                r.Region.used_words > 0
                && float_of_int r.Region.live_words
                   < s.config.mixed_live_threshold *. float_of_int region_words
              then candidates := r :: !candidates
          | Region.Free | Region.Eden | Region.Survivor -> ())
        heap;
      let by_liveness a b = compare a.Region.live_words b.Region.live_words in
      let sorted = List.sort by_liveness !candidates in
      let cap = max 1 (total_regions s / 8) in
      let chosen = List.filteri (fun i _ -> i < cap) sorted in
      s.mixed_pending <- List.map (fun r -> r.Region.index) chosen;
      s.marking <- Mark_idle;
      k ())

(* Mixed evacuation, inside a pause, after a scavenge: evacuate the
   candidate old regions using the liveness the last mark established. *)
let run_mixed_evacuation s k =
  let heap = s.ctx.Gc_types.heap in
  let pending = s.mixed_pending in
  s.mixed_pending <- [];
  let old_target = Allocator.create heap ~space:Region.Old in
  let evacuator =
    Evacuator.create s.ctx ~concurrent:false ~choose_target:(fun _ -> old_target)
  in
  let queued = ref false in
  List.iter
    (fun index ->
      let r = Heap.region heap index in
      match r.Region.space with
      | Region.Old ->
          Evacuator.add_region evacuator r;
          queued := true
      | Region.Free | Region.Eden | Region.Survivor -> ())
    pending;
  if not !queued then k ~failed:false
  else begin
    let failed = ref false in
    let work ~worker:_ =
      if !failed then 0
      else
        try Evacuator.step evacuator ~budget:slice_budget
        with Evacuator.Evacuation_failure ->
          failed := true;
          0
    in
    Worker_pool.run_phase s.stw_pool ~phase:Gcr_obs.Event.Evacuate ~work ~on_done:(fun () ->
        Allocator.retire old_target;
        s.words_copied <- s.words_copied + Evacuator.words_copied evacuator;
        k ~failed:!failed)
  end

(* ---------- the collection pause ---------- *)

let finish_collection s ~ran_full =
  let engine = s.ctx.Gc_types.engine in
  let heap = s.ctx.Gc_types.heap in
  s.collections <- s.collections + 1;
  if ran_full then s.full_collections <- s.full_collections + 1;
  s.eden_regions_since_gc <- 0;
  s.last_survivor_regions <- Heap.regions_in_space_count heap Region.Survivor;
  Heap.set_alloc_reserve heap (survivor_reserve s);
  recompute_eden_budget s;
  (* Initiate concurrent marking once old occupancy crosses the threshold
     (and no cycle or unconsumed candidates are outstanding). *)
  let old_used = float_of_int (Heap.space_used_words heap Region.Old) in
  let capacity = float_of_int (Heap.capacity_words heap) in
  if
    (not (marking_active s))
    && s.mixed_pending = []
    && (not ran_full)
    && (not (Worker_pool.busy s.conc_pool))
    (* a cancelled drain may still be terminating *)
    && old_used > s.config.initiating_occupancy *. capacity
  then start_concurrent_mark s;
  if free_regions s * 50 < total_regions s then s.low_free_streak <- s.low_free_streak + 1
  else s.low_free_streak <- 0;
  if s.low_free_streak >= 4 then
    s.ctx.Gc_types.oom "G1: GC overhead limit exceeded (heap too small)"
  else begin
    Engine.release_stop engine;
    s.gc_pending <- false;
    resume_waiters s
  end

let run_full_then_finish s =
  cancel_marking s;
  Full_compact.run s.ctx ~pool:s.stw_pool ~on_done:(fun (res : Full_compact.result) ->
      s.objects_marked <- s.objects_marked + res.objects_marked;
      Remset.clear s.remset;
      finish_collection s ~ran_full:true)

let run_collection_pause s =
  Scavenge.run s.ctx ~pool:s.stw_pool ~remset:s.remset ~tenure_age:s.config.tenure_age
    ~on_mark_young:ignore
    ~on_done:(fun (res : Scavenge.result) ->
      s.objects_marked <- s.objects_marked + res.objects_copied;
      s.words_copied <- s.words_copied + res.words_copied;
      if res.promo_failed then run_full_then_finish s
      else begin
        Remset.rebuild s.remset ~extra:res.promoted_with_fields;
        let after_mixed ~failed =
          if failed then run_full_then_finish s
          else begin
            let after_final_mark () =
              if free_regions s <= full_gc_reserve s then run_full_then_finish s
              else finish_collection s ~ran_full:false
            in
            match s.marking with
            | Mark_drained { tracer; session } when session = s.mark_session ->
                run_final_mark s tracer after_final_mark
            | Mark_drained _ | Mark_running _ | Mark_idle -> after_final_mark ()
          end
        in
        if s.mixed_pending <> [] then run_mixed_evacuation s after_mixed
        else after_mixed ~failed:false
      end)

let trigger_collection s th cont ~reason =
  s.gc_pending <- true;
  enqueue_waiter s th cont;
  Engine.request_stop s.ctx.Gc_types.engine ~reason (fun () -> run_collection_pause s)

let is_old s id =
  match Heap.obj_space s.ctx.Gc_types.heap id with
  | Region.Old -> true
  | Region.Free | Region.Eden | Region.Survivor -> false

let make (ctx : Gc_types.ctx) config =
  let s =
    {
      ctx;
      config;
      stw_pool = Worker_pool.create ctx ~count:config.stw_workers ~name:"G1-stw";
      conc_pool = Worker_pool.create ctx ~count:config.conc_workers ~name:"G1-conc";
      remset = Remset.create ctx.Gc_types.heap;
      waiters = Vec.create ();
      gc_pending = false;
      eden_regions_since_gc = 0;
      eden_budget = max 2 (Heap.total_regions ctx.Gc_types.heap / 4);
      last_survivor_regions = 0;
      low_free_streak = 0;
      marking = Mark_idle;
      mark_session = 0;
      mixed_pending = [];
      collections = 0;
      full_collections = 0;
      words_copied = 0;
      objects_marked = 0;
      concurrent_cycles = 0;
    }
  in
  Heap.set_alloc_reserve ctx.Gc_types.heap (max 4 (Heap.total_regions ctx.Gc_types.heap / 8));
  let engine = ctx.Gc_types.engine in
  let busy () = s.gc_pending || Engine.stop_requested engine in
  let after_refill th ~cont =
    s.eden_regions_since_gc <- s.eden_regions_since_gc + 1;
    if busy () then enqueue_waiter s th cont
    else if should_collect s then trigger_collection s th cont ~reason:"G1 young"
    else cont ()
  in
  let on_out_of_regions th ~retry =
    if busy () then enqueue_waiter s th retry
    else trigger_collection s th retry ~reason:"G1 allocation failure"
  in
  let on_pointer_write ~src ~old_target ~new_target =
    if (not (Obj_model.is_null new_target)) && is_old s src then Remset.remember s.remset src;
    match s.marking with
    | Mark_running { tracer; _ } | Mark_drained { tracer; _ } -> Tracer.add_root tracer old_target
    | Mark_idle -> ()
  in
  let on_alloc id =
    if marking_active s then Heap.set_marked ctx.Gc_types.heap id
  in
  let write_barrier () =
    let c = ctx.Gc_types.cost in
    c.Cost_model.card_mark
    + (if marking_active s then c.Cost_model.satb_active else c.Cost_model.satb_idle)
  in
  {
    Gc_types.name = "G1";
    read_barrier = (fun () -> 0);
    write_barrier;
    on_alloc;
    on_pointer_write;
    after_refill;
    on_out_of_regions;
    stats =
      (fun () ->
        {
          Gc_types.collections = s.collections;
          full_collections = s.full_collections;
          words_copied = s.words_copied;
          objects_marked = s.objects_marked;
          stalls = 0;
        });
  }
