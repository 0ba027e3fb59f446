module Heap = Gcr_heap.Heap
module Engine = Gcr_engine.Engine
module Obs = Gcr_obs.Obs
module Cost_model = Gcr_mach.Cost_model

type config = {
  conc_workers : int;
  trigger_free_fraction : float;
  pace_free_fraction : float;
  pace_stall_cycles : int;
  garbage_threshold : float;
}

let default_config ~cpus =
  {
    conc_workers = max 1 (cpus / 4);
    trigger_free_fraction = 0.55;
    pace_free_fraction = 0.30;
    pace_stall_cycles = 150_000;
    garbage_threshold = 0.25;
  }

type state = {
  ctx : Gc_types.ctx;
  config : config;
  cycle : Conc_cycle.t;
  pool : Worker_pool.t;
  waiters : Gc_types.waiters;
  mutable degenerated : bool;  (** we own an open (or opening) pause *)
  mutable on_pause_open : (unit -> unit) option;
      (** continuation deferred until the degenerated pause actually opens
          (the cycle can finish on GC threads while mutators are still
          coming to the safepoint) *)
  mutable low_free_streak : int;
  mutable free_at_cycle_start : int;
  mutable full_collections : int;
  mutable degenerated_collections : int;
  mutable stalls : int;
}

(* Pause broker handed to the cycle driver: in degenerated mode the pause
   is already open (or opening), so phase transitions run immediately and
   ownership of the single open pause stays with the degeneration logic. *)
let pause_broker s reason body =
  if s.degenerated || Engine.stop_requested s.ctx.Gc_types.engine then body (fun () -> ())
  else
    Engine.request_stop s.ctx.Gc_types.engine ~reason:("Shenandoah " ^ reason) (fun () ->
        body (fun () -> Engine.release_stop s.ctx.Gc_types.engine))

(* The overhead limit counts only full compactions that freed almost
   nothing: paced / degenerated cycles are Shenandoah's normal (if very
   slow) operating mode under pressure — the paper's xalan pathology. *)
let note_full_compaction s =
  s.low_free_streak <- (if Gc_types.low_free s.ctx then s.low_free_streak + 1 else 0);
  if s.low_free_streak >= 3 then
    s.ctx.Gc_types.oom "Shenandoah: GC overhead limit exceeded (heap too small)"

let note_degeneration s =
  s.degenerated <- true;
  let engine = s.ctx.Gc_types.engine in
  let obs = Engine.obs engine in
  Obs.degeneration obs ~time:(Engine.now engine)
    ~reason_id:(Obs.intern obs "Shenandoah degenerated")

(* Run [k] once we own an open pause: immediately if one is open, deferred
   to the pause-open callback if ours is still stopping, or by requesting a
   fresh one. *)
let when_paused s k =
  let engine = s.ctx.Gc_types.engine in
  if Engine.stw_active engine then k ()
  else if Engine.stop_requested engine then begin
    assert (s.degenerated && s.on_pause_open = None);
    s.on_pause_open <- Some k
  end
  else begin
    note_degeneration s;
    Engine.request_stop engine ~reason:"Shenandoah degenerated" (fun () -> k ())
  end

let handle_pause_open s () =
  match s.on_pause_open with
  | Some k ->
      s.on_pause_open <- None;
      k ()
  | None -> ()

let end_cycle s ~evac_failed =
  let engine = s.ctx.Gc_types.engine in
  let heap = s.ctx.Gc_types.heap in
  let wrap_up () = Gc_types.resume_waiters s.ctx s.waiters in
  let release_and_wrap_up () =
    s.degenerated <- false;
    Engine.release_stop engine;
    wrap_up ()
  in
  let no_progress =
    s.degenerated && Heap.free_regions heap <= max 2 s.free_at_cycle_start
  in
  if evac_failed || no_progress then
    (* The cycle could not reclaim enough: full mark-compact under a
       pause. *)
    when_paused s (fun () ->
        Full_compact.run s.ctx ~pool:s.pool ~on_done:(fun (_ : Full_compact.result) ->
            s.full_collections <- s.full_collections + 1;
            note_full_compaction s;
            if Heap.free_regions heap = 0 then
              s.ctx.Gc_types.oom "Shenandoah: full GC freed no memory"
            else release_and_wrap_up ()))
  else if s.degenerated then when_paused s release_and_wrap_up
  else wrap_up ()

let start_cycle s =
  if s.degenerated then s.degenerated_collections <- s.degenerated_collections + 1;
  (* re-derive the mutator reserve from live geometry: a sizing controller
     may have grown or shrunk the heap since the last cycle *)
  Heap.set_alloc_reserve s.ctx.Gc_types.heap
    (max 2 (Heap.total_regions s.ctx.Gc_types.heap / 10));
  s.free_at_cycle_start <- Heap.free_regions s.ctx.Gc_types.heap;
  Conc_cycle.start s.cycle ~pause:(pause_broker s) ~on_done:(end_cycle s)

let make (ctx : Gc_types.ctx) config =
  Heap.set_alloc_reserve ctx.Gc_types.heap
    (max 2 (Heap.total_regions ctx.Gc_types.heap / 10));
  let pool = Worker_pool.create ctx ~count:config.conc_workers ~name:"Shenandoah" in
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
      waiters = Gc_types.waiters ();
      degenerated = false;
      on_pause_open = None;
      low_free_streak = 0;
      free_at_cycle_start = 0;
      full_collections = 0;
      degenerated_collections = 0;
      stalls = 0;
    }
  in
  let engine = ctx.Gc_types.engine in
  let after_refill th ~cont =
    if (not (Conc_cycle.active cycle)) && (not (Engine.stop_requested engine))
       && (not (Worker_pool.busy pool))
       && Gc_types.free_fraction ctx < config.trigger_free_fraction
    then begin
      start_cycle s;
      cont ()
    end
    else if Conc_cycle.active cycle && Gc_types.free_fraction ctx < config.pace_free_fraction
    then begin
      (* Pacing: tax this allocation with a stall proportional to how far
         behind reclamation is.  Sleeping threads burn wall time but no
         cycles. *)
      s.stalls <- s.stalls + 1;
      let deficit = 1.0 -. (Gc_types.free_fraction ctx /. config.pace_free_fraction) in
      let stall =
        config.pace_stall_cycles
        + int_of_float (deficit *. float_of_int (8 * config.pace_stall_cycles))
      in
      Obs.pacing_stall (Engine.obs engine) ~time:(Engine.now engine)
        ~tid:(Engine.thread_id th) ~cycles:stall;
      Engine.stall engine th ~cycles:stall cont
    end
    else cont ()
  in
  let on_out_of_regions th ~retry =
    Gc_types.park ctx s.waiters th retry;
    if Engine.stop_requested engine || s.degenerated then
      (* A pause is already in flight; once it completes and frees memory
         the waiter retries. *)
      ()
    else if Conc_cycle.active cycle then begin
      (* Degenerated GC: finish the in-flight cycle stop-the-world. *)
      note_degeneration s;
      s.degenerated_collections <- s.degenerated_collections + 1;
      Engine.request_stop engine ~reason:"Shenandoah degenerated" (handle_pause_open s)
    end
    else if Worker_pool.busy pool then
      (* The previous cycle is terminating its last phase; its end-of-cycle
         hook will resume the waiter. *)
      ()
    else begin
      (* No cycle running and the heap is full: run a whole cycle inside a
         pause. *)
      note_degeneration s;
      Engine.request_stop engine ~reason:"Shenandoah degenerated" (fun () ->
          handle_pause_open s ();
          start_cycle s)
    end
  in
  let read_barrier () =
    let c = ctx.Gc_types.cost in
    match Conc_cycle.phase cycle with
    | Conc_cycle.Evacuating | Conc_cycle.Updating ->
        c.Cost_model.lvb_idle + (c.Cost_model.lvb_slow / 4)
    | Conc_cycle.Idle | Conc_cycle.Marking -> c.Cost_model.lvb_idle
  in
  let write_barrier () =
    let c = ctx.Gc_types.cost in
    match Conc_cycle.phase cycle with
    | Conc_cycle.Marking -> c.Cost_model.satb_active
    | Conc_cycle.Idle | Conc_cycle.Evacuating | Conc_cycle.Updating -> c.Cost_model.satb_idle
  in
  {
    Gc_types.name = "Shenandoah";
    read_barrier;
    write_barrier;
    on_alloc = (fun o -> Conc_cycle.mark_new_object cycle o);
    on_pointer_write =
      (fun ~src:_ ~old_target ~new_target:_ -> Conc_cycle.satb_publish cycle old_target);
    after_refill;
    on_out_of_regions;
    stats =
      (fun () ->
        {
          Gc_types.collections = Conc_cycle.cycles_completed cycle;
          full_collections = s.full_collections + s.degenerated_collections;
          words_copied = Conc_cycle.words_copied cycle;
          objects_marked = Conc_cycle.objects_marked cycle;
          stalls = s.stalls;
        });
  }
