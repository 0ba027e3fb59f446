module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Allocator = Gcr_heap.Allocator
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
  young : Stw_gen.young;
  stw_pool : Worker_pool.t;
  conc_pool : Worker_pool.t;
  mutable marking : mark_state;
  mutable mark_session : int;  (** bumping it cancels in-flight draining *)
  mutable mixed_pending : int list;  (** old region indices awaiting mixed evac *)
}

let slice_budget = 64

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
      Stw_gen.count s.young ~marked:(Tracer.objects_marked tracer) ~copied:0;
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
      let cap = max 1 (Heap.total_regions heap / 8) in
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
        Stw_gen.count s.young ~marked:0 ~copied:(Evacuator.words_copied evacuator);
        k ~failed:!failed)
  end

(* ---------- the collection pause ---------- *)

let finish_collection s ~ran_full =
  let heap = s.ctx.Gc_types.heap in
  Stw_gen.end_pause s.young ~ran_full;
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
  if Stw_gen.over_limit s.young ~limit:4 then
    s.ctx.Gc_types.oom "G1: GC overhead limit exceeded (heap too small)"
  else Stw_gen.release s.young

let run_full_then_finish s =
  cancel_marking s;
  Stw_gen.full_compact s.young ~on_done:(fun () -> finish_collection s ~ran_full:true)

let run_collection_pause s () =
  Stw_gen.scavenge s.young ~on_done:(fun ~promo_failed ->
      if promo_failed then run_full_then_finish s
      else begin
        let after_mixed ~failed =
          if failed then run_full_then_finish s
          else begin
            let after_final_mark () =
              if Stw_gen.needs_full s.young then run_full_then_finish s
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

let make (ctx : Gc_types.ctx) config =
  (* The concurrent pool is created first: pool creation order fixes
     thread ids and interned pool names, which the event stream carries. *)
  let conc_pool = Worker_pool.create ctx ~count:config.conc_workers ~name:"G1-conc" in
  let stw_pool = Worker_pool.create ctx ~count:config.stw_workers ~name:"G1-stw" in
  let young = Stw_gen.young ctx ~name:"G1" ~pool:stw_pool ~tenure_age:config.tenure_age in
  let s =
    {
      ctx;
      config;
      young;
      stw_pool;
      conc_pool;
      marking = Mark_idle;
      mark_session = 0;
      mixed_pending = [];
    }
  in
  let collect = run_collection_pause s in
  let continue _th cont = cont () in
  let on_pointer_write ~src ~old_target ~new_target =
    Stw_gen.remember young ~src ~new_target;
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
    after_refill =
      (fun th ~cont -> Stw_gen.after_refill young ~collect ~otherwise:continue th ~cont);
    on_out_of_regions = (fun th ~retry -> Stw_gen.on_out_of_regions young ~collect th ~retry);
    stats = (fun () -> Stw_gen.stats young);
  }
