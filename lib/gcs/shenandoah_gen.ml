module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Engine = Gcr_engine.Engine
module Obs = Gcr_obs.Obs
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type config = {
  stw_workers : int;
  conc_workers : int;
  tenure_age : int;
  old_trigger_occupancy : float;
  pace_free_fraction : float;
  pace_stall_cycles : int;
  garbage_threshold : float;
}

let default_config ~cpus =
  {
    stw_workers = (if cpus <= 8 then cpus else 8 + ((cpus - 8) * 5 / 8));
    conc_workers = max 1 (cpus / 4);
    tenure_age = 2;
    old_trigger_occupancy = 0.35;
    pace_free_fraction = 0.25;
    pace_stall_cycles = 100_000;
    garbage_threshold = 0.25;
  }

type state = {
  ctx : Gc_types.ctx;
  config : config;
  stw_pool : Worker_pool.t;
  conc_pool : Worker_pool.t;
  cycle : Conc_cycle.t;
  remset : Remset.t;
  waiters : (Engine.thread * (unit -> unit)) Vec.t;
  mutable gc_pending : bool;  (** a young pause is being organised / open *)
  mutable degen_wait : bool;
      (** a young pause stays open until the in-flight old cycle finishes
          (the generational analogue of degenerated GC) *)
  mutable full_wanted : bool;  (** old cycle failed; compact at next pause *)
  mutable eden_regions_since_gc : int;
  mutable eden_budget : int;
  mutable last_survivor_regions : int;
  mutable low_free_streak : int;
  mutable collections : int;
  mutable full_collections : int;
  mutable words_copied : int;
  mutable objects_marked : int;
  mutable stalls : int;
}

let total_regions s = Heap.total_regions s.ctx.Gc_types.heap

let free_regions s = Heap.free_regions s.ctx.Gc_types.heap

let free_fraction s = float_of_int (free_regions s) /. float_of_int (total_regions s)

let survivor_reserve s = max 2 ((s.last_survivor_regions * 2) + 1)

let full_gc_reserve s = max 3 (total_regions s / 32)

let should_collect_young s =
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

let cycle_active s =
  match Conc_cycle.phase s.cycle with
  | Conc_cycle.Idle -> false
  | Conc_cycle.Marking | Conc_cycle.Evacuating | Conc_cycle.Updating -> true

(* The old cycle's pauses piggyback on whatever young pause is open;
   otherwise they open their own short safepoints. *)
let pause_broker s reason body =
  let engine = s.ctx.Gc_types.engine in
  if Engine.stop_requested engine then body (fun () -> ())
  else
    Engine.request_stop engine ~reason:("GenShen " ^ reason) (fun () ->
        body (fun () -> Engine.release_stop engine))

let note_full_compaction s =
  if free_fraction s < 0.02 then s.low_free_streak <- s.low_free_streak + 1
  else s.low_free_streak <- 0;
  if s.low_free_streak >= 3 then
    s.ctx.Gc_types.oom "GenShen: GC overhead limit exceeded (heap too small)"

(* End of a young pause: bookkeeping + release + waiters. *)
let finish_pause s ~ran_full =
  let heap = s.ctx.Gc_types.heap in
  s.collections <- s.collections + 1;
  if ran_full then s.full_collections <- s.full_collections + 1;
  s.eden_regions_since_gc <- 0;
  s.last_survivor_regions <- Heap.regions_in_space_count heap Region.Survivor;
  Heap.set_alloc_reserve heap (survivor_reserve s);
  recompute_eden_budget s;
  Engine.release_stop s.ctx.Gc_types.engine;
  s.gc_pending <- false;
  resume_waiters s

let run_full_then_finish s =
  s.full_wanted <- false;
  Full_compact.run s.ctx ~pool:s.stw_pool ~on_done:(fun (res : Full_compact.result) ->
      s.objects_marked <- s.objects_marked + res.objects_marked;
      Remset.clear s.remset;
      note_full_compaction s;
      finish_pause s ~ran_full:true)

(* Start a concurrent old cycle (caller checked it is safe). *)
let start_old_cycle s =
  Conc_cycle.start s.cycle
    ~pause:(pause_broker s)
    ~on_done:(fun ~evac_failed ->
      if s.degen_wait then begin
        (* A young pause has been held open waiting for us. *)

        s.degen_wait <- false;
        if evac_failed || free_regions s <= full_gc_reserve s then run_full_then_finish s
        else finish_pause s ~ran_full:false
      end
      else begin
        if evac_failed then s.full_wanted <- true;
        resume_waiters s
      end)

let maybe_start_old_cycle s =
  let heap = s.ctx.Gc_types.heap in
  let old_used = float_of_int (Heap.space_used_words heap Region.Old) in
  let capacity = float_of_int (Heap.capacity_words heap) in
  if
    (not (cycle_active s))
    && (not (Worker_pool.busy s.conc_pool))
    && old_used > s.config.old_trigger_occupancy *. capacity
  then start_old_cycle s

(* The young collection, inside its pause. *)
let run_young_collection s =
  Scavenge.run s.ctx ~pool:s.stw_pool ~remset:s.remset ~tenure_age:s.config.tenure_age
    ~on_mark_young:ignore
    ~on_done:(fun (res : Scavenge.result) ->
      s.objects_marked <- s.objects_marked + res.objects_copied;
      s.words_copied <- s.words_copied + res.words_copied;
      if not res.promo_failed then Remset.rebuild s.remset ~extra:res.promoted_with_fields;
      let need_full =
        res.promo_failed || s.full_wanted || free_regions s <= full_gc_reserve s
      in
      if need_full then begin
        if cycle_active s then begin
          (* Cannot compact while the old cycle is mid-flight: hold the
             pause open; the cycle finishes stop-the-world on its workers
             and then compacts if still needed. *)
          let obs = Engine.obs s.ctx.Gc_types.engine in
          Obs.degeneration obs
            ~time:(Engine.now s.ctx.Gc_types.engine)
            ~reason_id:(Obs.intern obs "GenShen degenerated (old cycle in flight)");
          s.degen_wait <- true
        end
        else run_full_then_finish s
      end
      else begin
        maybe_start_old_cycle s;
        finish_pause s ~ran_full:false
      end)

let trigger_young s th cont ~reason =
  s.gc_pending <- true;
  enqueue_waiter s th cont;
  Engine.request_stop s.ctx.Gc_types.engine ~reason (fun () -> run_young_collection s)

let is_old s id =
  match Heap.obj_space s.ctx.Gc_types.heap id with
  | Region.Old -> true
  | Region.Free | Region.Eden | Region.Survivor -> false

let make (ctx : Gc_types.ctx) config =
  Heap.set_alloc_reserve ctx.Gc_types.heap (max 4 (Heap.total_regions ctx.Gc_types.heap / 8));
  let stw_pool = Worker_pool.create ctx ~count:config.stw_workers ~name:"GenShen-stw" in
  let conc_pool = Worker_pool.create ctx ~count:config.conc_workers ~name:"GenShen-conc" in
  let cycle =
    Conc_cycle.create ctx ~pool:conc_pool ~garbage_threshold:config.garbage_threshold
      ~reserve_regions:(fun () -> max 2 (Heap.total_regions ctx.Gc_types.heap / 20))
      ~concurrent_copy:true ~old_only:true ()
  in
  let s =
    {
      ctx;
      config;
      stw_pool;
      conc_pool;
      cycle;
      remset = Remset.create ctx.Gc_types.heap;
      waiters = Vec.create ();
      gc_pending = false;
      degen_wait = false;
      full_wanted = false;
      eden_regions_since_gc = 0;
      eden_budget = max 2 (Heap.total_regions ctx.Gc_types.heap / 4);
      last_survivor_regions = 0;
      low_free_streak = 0;
      collections = 0;
      full_collections = 0;
      words_copied = 0;
      objects_marked = 0;
      stalls = 0;
    }
  in
  let engine = ctx.Gc_types.engine in
  let busy () = s.gc_pending || Engine.stop_requested engine in
  let after_refill th ~cont =
    s.eden_regions_since_gc <- s.eden_regions_since_gc + 1;
    if busy () then enqueue_waiter s th cont
    else if should_collect_young s then trigger_young s th cont ~reason:"GenShen young"
    else if cycle_active s && free_fraction s < config.pace_free_fraction then begin
      (* Pacing while the old cycle is behind. *)
      s.stalls <- s.stalls + 1;
      let deficit = 1.0 -. (free_fraction s /. config.pace_free_fraction) in
      let stall =
        config.pace_stall_cycles
        + int_of_float (deficit *. float_of_int (4 * config.pace_stall_cycles))
      in
      Obs.pacing_stall (Engine.obs engine) ~time:(Engine.now engine)
        ~tid:(Engine.thread_id th) ~cycles:stall;
      Engine.stall engine th ~cycles:stall cont
    end
    else cont ()
  in
  let on_out_of_regions th ~retry =
    if busy () then enqueue_waiter s th retry
    else trigger_young s th retry ~reason:"GenShen allocation failure"
  in
  let on_pointer_write ~src ~old_target ~new_target =
    if (not (Obj_model.is_null new_target)) && is_old s src then Remset.remember s.remset src;
    Conc_cycle.satb_publish cycle old_target
  in
  let write_barrier () =
    let c = ctx.Gc_types.cost in
    c.Cost_model.card_mark
    +
    match Conc_cycle.phase cycle with
    | Conc_cycle.Marking -> c.Cost_model.satb_active
    | Conc_cycle.Idle | Conc_cycle.Evacuating | Conc_cycle.Updating -> c.Cost_model.satb_idle
  in
  let read_barrier () =
    let c = ctx.Gc_types.cost in
    match Conc_cycle.phase cycle with
    | Conc_cycle.Evacuating | Conc_cycle.Updating ->
        c.Cost_model.lvb_idle + (c.Cost_model.lvb_slow / 4)
    | Conc_cycle.Idle | Conc_cycle.Marking -> c.Cost_model.lvb_idle
  in
  {
    Gc_types.name = "GenShen";
    read_barrier;
    write_barrier;
    on_alloc = (fun o -> Conc_cycle.mark_new_object cycle o);
    on_pointer_write;
    after_refill;
    on_out_of_regions;
    stats =
      (fun () ->
        {
          Gc_types.collections = s.collections + Conc_cycle.cycles_completed cycle;
          full_collections = s.full_collections;
          words_copied = s.words_copied + Conc_cycle.words_copied cycle;
          objects_marked = s.objects_marked + Conc_cycle.objects_marked cycle;
          stalls = s.stalls;
        });
  }
