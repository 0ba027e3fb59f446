module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Engine = Gcr_engine.Engine
module Vec = Gcr_util.Vec
module Cost_model = Gcr_mach.Cost_model

type config = {
  name : string;
  stw_workers : int;
  tenure_age : int;
}

let serial_config ~cpus:_ = { name = "Serial"; stw_workers = 1; tenure_age = 2 }

let parallel_config ~cpus =
  let workers = if cpus <= 8 then cpus else 8 + ((cpus - 8) * 5 / 8) in
  { name = "Parallel"; stw_workers = workers; tenure_age = 2 }

type state = {
  ctx : Gc_types.ctx;
  config : config;
  pool : Worker_pool.t;
  remset : Remset.t;
  waiters : (Engine.thread * (unit -> unit)) Vec.t;
  mutable gc_pending : bool;
  mutable eden_regions_since_gc : int;
  mutable eden_budget : int;
  mutable last_survivor_regions : int;
  mutable low_free_streak : int;  (** GC-overhead-limit detector *)
  mutable collections : int;
  mutable full_collections : int;
  mutable words_copied : int;
  mutable objects_marked : int;
}

let total_regions s = Heap.total_regions s.ctx.Gc_types.heap

let free_regions s = Heap.free_regions s.ctx.Gc_types.heap

(* Headroom that must stay free so the next scavenge has copy targets. *)
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

(* Runs inside the pause once all collection work is complete. *)
let finish_collection s ~ran_full =
  let engine = s.ctx.Gc_types.engine in
  let heap = s.ctx.Gc_types.heap in
  s.collections <- s.collections + 1;
  if ran_full then s.full_collections <- s.full_collections + 1;
  s.eden_regions_since_gc <- 0;
  s.last_survivor_regions <- Heap.regions_in_space_count heap Region.Survivor;
  Heap.set_alloc_reserve heap (survivor_reserve s);
  recompute_eden_budget s;
  (* GC-overhead limit: persistent near-zero headroom means the workload
     cannot make progress in this heap. *)
  if free_regions s * 50 < total_regions s then s.low_free_streak <- s.low_free_streak + 1
  else s.low_free_streak <- 0;
  if s.low_free_streak >= 4 then
    s.ctx.Gc_types.oom
      (Printf.sprintf "%s: GC overhead limit exceeded (heap too small)" s.config.name)
  else begin
    Engine.release_stop engine;
    s.gc_pending <- false;
    resume_waiters s
  end

let run_full_then_finish s =
  Full_compact.run s.ctx ~pool:s.pool ~on_done:(fun (res : Full_compact.result) ->
      s.objects_marked <- s.objects_marked + res.objects_marked;
      Remset.clear s.remset;
      finish_collection s ~ran_full:true)

let run_young_collection s =
  Scavenge.run s.ctx ~pool:s.pool ~remset:s.remset ~tenure_age:s.config.tenure_age
    ~on_mark_young:ignore
    ~on_done:(fun (res : Scavenge.result) ->
      s.objects_marked <- s.objects_marked + res.objects_copied;
      s.words_copied <- s.words_copied + res.words_copied;
      if res.promo_failed then run_full_then_finish s
      else begin
        Remset.rebuild s.remset ~extra:res.promoted_with_fields;
        if free_regions s <= full_gc_reserve s then run_full_then_finish s
        else finish_collection s ~ran_full:false
      end)

let trigger_collection s th cont ~reason =
  s.gc_pending <- true;
  enqueue_waiter s th cont;
  Engine.request_stop s.ctx.Gc_types.engine ~reason (fun () -> run_young_collection s)

let is_old s id =
  match Heap.obj_space s.ctx.Gc_types.heap id with
  | Region.Old -> true
  | Region.Free | Region.Eden | Region.Survivor -> false

let make (ctx : Gc_types.ctx) config =
  let s =
    {
      ctx;
      config;
      pool = Worker_pool.create ctx ~count:config.stw_workers ~name:config.name;
      remset = Remset.create ctx.Gc_types.heap;
      waiters = Vec.create ();
      gc_pending = false;
      eden_regions_since_gc = 0;
      eden_budget = max 2 (Heap.total_regions ctx.Gc_types.heap / 4);
      last_survivor_regions = 0;
      low_free_streak = 0;
      collections = 0;
      full_collections = 0;
      words_copied = 0;
      objects_marked = 0;
    }
  in
  Heap.set_alloc_reserve ctx.Gc_types.heap (max 4 (Heap.total_regions ctx.Gc_types.heap / 8));
  let engine = ctx.Gc_types.engine in
  let busy () = s.gc_pending || Engine.stop_requested engine in
  let after_refill th ~cont =
    s.eden_regions_since_gc <- s.eden_regions_since_gc + 1;
    if busy () then enqueue_waiter s th cont
    else if should_collect s then trigger_collection s th cont ~reason:(config.name ^ " young")
    else cont ()
  in
  let on_out_of_regions th ~retry =
    if busy () then enqueue_waiter s th retry
    else trigger_collection s th retry ~reason:(config.name ^ " allocation failure")
  in
  let on_pointer_write ~src ~old_target:_ ~new_target =
    if (not (Obj_model.is_null new_target)) && is_old s src then Remset.remember s.remset src
  in
  {
    Gc_types.name = config.name;
    read_barrier = (fun () -> 0);
    write_barrier = (fun () -> ctx.Gc_types.cost.Cost_model.card_mark);
    on_alloc = ignore;
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
