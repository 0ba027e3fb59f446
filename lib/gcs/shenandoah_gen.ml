module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Engine = Gcr_engine.Engine
module Obs = Gcr_obs.Obs
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
  young : Stw_gen.young;
  conc_pool : Worker_pool.t;
  cycle : Conc_cycle.t;
  mutable degen_wait : bool;
      (** a young pause stays open until the in-flight old cycle finishes
          (the generational analogue of degenerated GC) *)
  mutable full_wanted : bool;  (** old cycle failed; compact at next pause *)
  mutable stalls : int;
}

(* The old cycle's pauses piggyback on whatever young pause is open;
   otherwise they open their own short safepoints. *)
let pause_broker s reason body =
  let engine = s.ctx.Gc_types.engine in
  if Engine.stop_requested engine then body (fun () -> ())
  else
    Engine.request_stop engine ~reason:("GenShen " ^ reason) (fun () ->
        body (fun () -> Engine.release_stop engine))

(* End of a young pause: bookkeeping + release + waiters. *)
let finish_pause s ~ran_full =
  Stw_gen.end_pause s.young ~ran_full;
  Stw_gen.release s.young

(* The overhead limit counts full compactions only. *)
let run_full_then_finish s =
  s.full_wanted <- false;
  Stw_gen.full_compact s.young ~on_done:(fun () ->
      if Stw_gen.over_limit s.young ~limit:3 then
        s.ctx.Gc_types.oom "GenShen: GC overhead limit exceeded (heap too small)";
      finish_pause s ~ran_full:true)

(* Start a concurrent old cycle (caller checked it is safe). *)
let start_old_cycle s =
  Conc_cycle.start s.cycle
    ~pause:(pause_broker s)
    ~on_done:(fun ~evac_failed ->
      if s.degen_wait then begin
        (* A young pause has been held open waiting for us. *)
        s.degen_wait <- false;
        if evac_failed || Stw_gen.needs_full s.young then run_full_then_finish s
        else finish_pause s ~ran_full:false
      end
      else begin
        if evac_failed then s.full_wanted <- true;
        Stw_gen.resume_waiters s.young
      end)

let maybe_start_old_cycle s =
  let heap = s.ctx.Gc_types.heap in
  let old_used = float_of_int (Heap.space_used_words heap Region.Old) in
  let capacity = float_of_int (Heap.capacity_words heap) in
  if
    (not (Conc_cycle.active s.cycle))
    && (not (Worker_pool.busy s.conc_pool))
    && old_used > s.config.old_trigger_occupancy *. capacity
  then start_old_cycle s

(* The young collection, inside its pause. *)
let run_young_collection s () =
  Stw_gen.scavenge s.young ~on_done:(fun ~promo_failed ->
      if promo_failed || s.full_wanted || Stw_gen.needs_full s.young then begin
        if Conc_cycle.active s.cycle then begin
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

let make (ctx : Gc_types.ctx) config =
  let stw_pool = Worker_pool.create ctx ~count:config.stw_workers ~name:"GenShen-stw" in
  let conc_pool = Worker_pool.create ctx ~count:config.conc_workers ~name:"GenShen-conc" in
  let young = Stw_gen.young ctx ~name:"GenShen" ~pool:stw_pool ~tenure_age:config.tenure_age in
  let cycle =
    Conc_cycle.create ctx ~pool:conc_pool ~garbage_threshold:config.garbage_threshold
      ~reserve_regions:(fun () -> max 2 (Heap.total_regions ctx.Gc_types.heap / 20))
      ~concurrent_copy:true ~old_only:true ()
  in
  let s =
    { ctx; config; young; conc_pool; cycle; degen_wait = false; full_wanted = false; stalls = 0 }
  in
  let engine = ctx.Gc_types.engine in
  let collect = run_young_collection s in
  (* Pacing while the old cycle is behind. *)
  let pace th cont =
    if Conc_cycle.active cycle && Gc_types.free_fraction ctx < config.pace_free_fraction then begin
      s.stalls <- s.stalls + 1;
      let deficit = 1.0 -. (Gc_types.free_fraction ctx /. config.pace_free_fraction) in
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
  let on_pointer_write ~src ~old_target ~new_target =
    Stw_gen.remember young ~src ~new_target;
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
    after_refill =
      (fun th ~cont -> Stw_gen.after_refill young ~collect ~otherwise:pace th ~cont);
    on_out_of_regions = (fun th ~retry -> Stw_gen.on_out_of_regions young ~collect th ~retry);
    stats =
      (fun () ->
        let y = Stw_gen.stats young in
        {
          y with
          Gc_types.collections = y.Gc_types.collections + Conc_cycle.cycles_completed cycle;
          words_copied = y.Gc_types.words_copied + Conc_cycle.words_copied cycle;
          objects_marked = y.Gc_types.objects_marked + Conc_cycle.objects_marked cycle;
          stalls = s.stalls;
        });
  }
