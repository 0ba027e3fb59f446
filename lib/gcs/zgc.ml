module Heap = Gcr_heap.Heap
module Engine = Gcr_engine.Engine
module Obs = Gcr_obs.Obs
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type config = {
  conc_workers : int;
  trigger_free_fraction : float;
  garbage_threshold : float;
  max_evac_failures : int;
  stall_timeout_cycles : int;
  overload_waiters : int;  (** cycle-end stalled-thread count counting as overload *)
  max_overload_cycles : int;  (** consecutive overloaded cycle ends before OOM *)
}

let default_config ~cpus =
  {
    conc_workers = max 1 (cpus / 8);
    (* JDK 17 default: ConcGCThreads = 12.5% of CPUs *)
    trigger_free_fraction = 0.55;
    garbage_threshold = 0.25;
    max_evac_failures = 3;
    stall_timeout_cycles = 20_000_000;
    overload_waiters = max 2 (cpus / 4);
    max_overload_cycles = 60;
  }

type waiter = {
  thread : Engine.thread;
  retry : unit -> unit;
  parked_at : int;
}

type state = {
  ctx : Gc_types.ctx;
  config : config;
  cycle : Conc_cycle.t;
  pool : Worker_pool.t;
  waiters : waiter Vec.t;
  mutable evac_failures : int;
  mutable overload_streak : int;
  mutable poll_active : bool;
  mutable stalls : int;
}

let memory_available s =
  Heap.free_regions s.ctx.Gc_types.heap > Heap.alloc_reserve s.ctx.Gc_types.heap

let resume_waiters s =
  let engine = s.ctx.Gc_types.engine in
  let obs = Engine.obs engine in
  let now = Engine.now engine in
  let pending = Vec.to_list s.waiters in
  Vec.clear s.waiters;
  List.iter
    (fun w ->
      Obs.alloc_stall_end obs ~time:now ~tid:(Engine.thread_id w.thread)
        ~waited:(now - w.parked_at);
      Engine.resume engine w.thread w.retry)
    pending

let oldest_waiter_age s =
  let now = Engine.now s.ctx.Gc_types.engine in
  Vec.fold (fun acc w -> max acc (now - w.parked_at)) 0 s.waiters

(* Stalled allocators wake as soon as reclamation replenishes the pool —
   not only at cycle boundaries; a stall that outlives the timeout is the
   ZGC OutOfMemoryError (allocation has outrun reclamation for good, the
   paper's xalan failure). *)
let rec schedule_stall_poll s =
  s.poll_active <- true;
  Engine.after s.ctx.Gc_types.engine ~cycles:5_000 (fun () ->
      if Vec.is_empty s.waiters then s.poll_active <- false
      else begin
        if memory_available s then resume_waiters s;
        if Vec.is_empty s.waiters then s.poll_active <- false
        else if oldest_waiter_age s > s.config.stall_timeout_cycles then
          s.ctx.Gc_types.oom
            "ZGC: allocation stalled beyond timeout (allocation rate exceeds reclamation; \
             no full-GC fallback)"
        else schedule_stall_poll s
      end)

(* ZGC's pauses are its own tiny init/final marks; allocation failure never
   opens one. *)
let pause_broker s reason body =
  let engine = s.ctx.Gc_types.engine in
  if Engine.stop_requested engine then body (fun () -> ())
  else
    Engine.request_stop engine ~reason:("ZGC " ^ reason) (fun () ->
        body (fun () -> Engine.release_stop engine))

let rec end_cycle s ~evac_failed =
  if evac_failed then s.evac_failures <- s.evac_failures + 1
  else s.evac_failures <- 0;
  (* Overload detection: ending cycle after cycle with a crowd of stalled
     allocators means allocation outruns reclamation for good — real ZGC
     ends such runs with OutOfMemoryError (the paper's xalan failure). *)
  if Vec.length s.waiters >= s.config.overload_waiters then
    s.overload_streak <- s.overload_streak + 1
  else s.overload_streak <- 0;
  if s.evac_failures >= s.config.max_evac_failures then
    s.ctx.Gc_types.oom "ZGC: to-space exhausted repeatedly (no full-GC fallback)"
  else if s.overload_streak >= s.config.max_overload_cycles then
    s.ctx.Gc_types.oom
      "ZGC: sustained allocation stalls (allocation rate exceeds reclamation)"
  else if memory_available s then resume_waiters s
  else if not (Vec.is_empty s.waiters) then
    (* Still at the reserve with threads stalled: run cycles back to
       back.  The stall timeout bounds how long this may go on. *)
    start_cycle s

and start_cycle s =
  (* re-derive the mutator reserve from live geometry: a sizing controller
     may have grown or shrunk the heap since the last cycle *)
  Heap.set_alloc_reserve s.ctx.Gc_types.heap
    (max 2 (Heap.total_regions s.ctx.Gc_types.heap / 10));
  Conc_cycle.start s.cycle ~pause:(pause_broker s) ~on_done:(end_cycle s)

let make (ctx : Gc_types.ctx) config =
  Heap.set_alloc_reserve ctx.Gc_types.heap
    (max 2 (Heap.total_regions ctx.Gc_types.heap / 10));
  let pool = Worker_pool.create ctx ~count:config.conc_workers ~name:"ZGC" in
  let cycle =
    Conc_cycle.create ctx ~pool ~garbage_threshold:config.garbage_threshold
      ~reserve_regions:(fun () -> max 2 (Heap.total_regions ctx.Gc_types.heap / 20))
      ~concurrent_copy:true ()
  in
  let s =
    {
      ctx;
      config;
      cycle;
      pool;
      waiters = Vec.create ();
      evac_failures = 0;
      overload_streak = 0;
      poll_active = false;
      stalls = 0;
    }
  in
  let engine = ctx.Gc_types.engine in
  let can_start () =
    (not (Conc_cycle.active cycle))
    && (not (Engine.stop_requested engine))
    && not (Worker_pool.busy pool)
  in
  let after_refill _th ~cont =
    (* Opportunistic wake-up: a successful refill proves memory is
       available again, so stalled threads need not wait for the poll. *)
    if (not (Vec.is_empty s.waiters)) && memory_available s then resume_waiters s;
    if can_start () && Gc_types.free_fraction ctx < config.trigger_free_fraction then start_cycle s;
    cont ()
  in
  let on_out_of_regions th ~retry =
    (* Allocation stall: block until reclamation frees memory. *)
    s.stalls <- s.stalls + 1;
    Obs.alloc_stall_begin (Engine.obs engine) ~time:(Engine.now engine)
      ~tid:(Engine.thread_id th);
    Engine.park engine th;
    Vec.push s.waiters { thread = th; retry; parked_at = Engine.now engine };
    if not s.poll_active then schedule_stall_poll s;
    if can_start () then start_cycle s
  in
  let read_barrier () =
    let c = ctx.Gc_types.cost in
    match Conc_cycle.phase cycle with
    | Conc_cycle.Evacuating | Conc_cycle.Updating ->
        c.Cost_model.lvb_idle + (c.Cost_model.lvb_slow / 4)
    | Conc_cycle.Marking -> c.Cost_model.lvb_idle + 1
    | Conc_cycle.Idle -> c.Cost_model.lvb_idle
  in
  {
    Gc_types.name = "ZGC";
    read_barrier;
    write_barrier = (fun () -> ctx.Gc_types.cost.Cost_model.barrier_none);
    on_alloc = (fun o -> Conc_cycle.mark_new_object cycle o);
    on_pointer_write =
      (fun ~src:_ ~old_target ~new_target:_ -> Conc_cycle.satb_publish cycle old_target);
    after_refill;
    on_out_of_regions;
    stats =
      (fun () ->
        {
          Gc_types.collections = Conc_cycle.cycles_completed cycle;
          full_collections = 0;
          words_copied = Conc_cycle.words_copied cycle;
          objects_marked = Conc_cycle.objects_marked cycle;
          stalls = s.stalls;
        });
  }
