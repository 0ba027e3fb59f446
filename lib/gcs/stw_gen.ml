module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Engine = Gcr_engine.Engine
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

(* ---------- the young generation ---------- *)

type young = {
  ctx : Gc_types.ctx;
  pool : Worker_pool.t;
  young_reason : string;
  failure_reason : string;
  tenure_age : int;
  remset : Remset.t;
  waiters : Gc_types.waiters;
  mutable gc_pending : bool;  (** a young pause is being organised or open *)
  mutable eden_regions_since_gc : int;
  mutable eden_budget : int;  (** eden regions that trigger the next pause *)
  mutable last_survivor_regions : int;
  mutable low_free_streak : int;  (** GC-overhead-limit detector *)
  mutable collections : int;
  mutable full_collections : int;
  mutable words_copied : int;
  mutable objects_marked : int;
}

let young (ctx : Gc_types.ctx) ~name ~pool ~tenure_age =
  let heap = ctx.Gc_types.heap in
  Heap.set_alloc_reserve heap (max 4 (Heap.total_regions heap / 8));
  {
    ctx;
    pool;
    young_reason = name ^ " young";
    failure_reason = name ^ " allocation failure";
    tenure_age;
    remset = Remset.create heap;
    waiters = Gc_types.waiters ();
    gc_pending = false;
    eden_regions_since_gc = 0;
    eden_budget = max 2 (Heap.total_regions heap / 4);
    last_survivor_regions = 0;
    low_free_streak = 0;
    collections = 0;
    full_collections = 0;
    words_copied = 0;
    objects_marked = 0;
  }

let[@inline] free_regions y = Heap.free_regions y.ctx.Gc_types.heap

(* Headroom that must stay free so the next scavenge has copy targets. *)
let[@inline] survivor_reserve y = max 2 ((y.last_survivor_regions * 2) + 1)

let[@inline] should_collect y =
  y.eden_regions_since_gc >= y.eden_budget || free_regions y <= survivor_reserve y

let needs_full y = free_regions y <= max 3 (Heap.total_regions y.ctx.Gc_types.heap / 32)

let[@inline] is_old y id =
  match Heap.obj_space y.ctx.Gc_types.heap id with
  | Region.Old -> true
  | Region.Free | Region.Eden | Region.Survivor -> false

let[@inline] remember y ~src ~new_target =
  if (not (Obj_model.is_null new_target)) && is_old y src then Remset.remember y.remset src

let park y th cont = Gc_types.park y.ctx y.waiters th cont

let resume_waiters y = Gc_types.resume_waiters y.ctx y.waiters

let[@inline] busy y = y.gc_pending || Engine.stop_requested y.ctx.Gc_types.engine

let trigger y th cont ~reason ~collect =
  y.gc_pending <- true;
  park y th cont;
  Engine.request_stop y.ctx.Gc_types.engine ~reason collect

let[@inline] after_refill y ~collect ~otherwise th ~cont =
  y.eden_regions_since_gc <- y.eden_regions_since_gc + 1;
  if busy y then park y th cont
  else if should_collect y then trigger y th cont ~reason:y.young_reason ~collect
  else otherwise th cont

let on_out_of_regions y ~collect th ~retry =
  if busy y then park y th retry else trigger y th retry ~reason:y.failure_reason ~collect

let count y ~marked ~copied =
  y.objects_marked <- y.objects_marked + marked;
  y.words_copied <- y.words_copied + copied

let scavenge y ~on_done =
  Scavenge.run y.ctx ~pool:y.pool ~remset:y.remset ~tenure_age:y.tenure_age
    ~on_done:(fun (res : Scavenge.result) ->
      count y ~marked:res.Scavenge.objects_copied ~copied:res.Scavenge.words_copied;
      if not res.Scavenge.promo_failed then
        Remset.rebuild y.remset ~extra:res.Scavenge.promoted_with_fields;
      on_done ~promo_failed:res.Scavenge.promo_failed)

let full_compact y ~on_done =
  Full_compact.run y.ctx ~pool:y.pool ~on_done:(fun (res : Full_compact.result) ->
      count y ~marked:res.Full_compact.objects_marked ~copied:0;
      Remset.clear y.remset;
      on_done ())

let end_pause y ~ran_full =
  let heap = y.ctx.Gc_types.heap in
  y.collections <- y.collections + 1;
  if ran_full then y.full_collections <- y.full_collections + 1;
  y.eden_regions_since_gc <- 0;
  y.last_survivor_regions <- Heap.regions_in_space_count heap Region.Survivor;
  Heap.set_alloc_reserve heap (survivor_reserve y);
  y.eden_budget <- max 2 ((free_regions y - survivor_reserve y) / 2)

let over_limit y ~limit =
  y.low_free_streak <- (if Gc_types.low_free y.ctx then y.low_free_streak + 1 else 0);
  y.low_free_streak >= limit

let release y =
  Engine.release_stop y.ctx.Gc_types.engine;
  y.gc_pending <- false;
  resume_waiters y

let stats y =
  {
    Gc_types.collections = y.collections;
    full_collections = y.full_collections;
    words_copied = y.words_copied;
    objects_marked = y.objects_marked;
    stalls = 0;
  }

(* ---------- Serial, Parallel and SerialPT ---------- *)

let make (ctx : Gc_types.ctx) config =
  let y =
    young ctx ~name:config.name
      ~pool:(Worker_pool.create ctx ~count:config.stw_workers ~name:config.name)
      ~tenure_age:config.tenure_age
  in
  (* GC-overhead limit: persistent near-zero headroom means the workload
     cannot make progress in this heap. *)
  let finish ~ran_full =
    end_pause y ~ran_full;
    if over_limit y ~limit:4 then
      ctx.Gc_types.oom (config.name ^ ": GC overhead limit exceeded (heap too small)")
    else release y
  in
  let full () = full_compact y ~on_done:(fun () -> finish ~ran_full:true) in
  let collect () =
    scavenge y ~on_done:(fun ~promo_failed ->
        if promo_failed || needs_full y then full () else finish ~ran_full:false)
  in
  let continue _th cont = cont () in
  {
    Gc_types.name = config.name;
    read_barrier = (fun () -> 0);
    write_barrier = (fun () -> ctx.Gc_types.cost.Cost_model.card_mark);
    on_alloc = ignore;
    on_pointer_write = (fun ~src ~old_target:_ ~new_target -> remember y ~src ~new_target);
    after_refill = (fun th ~cont -> after_refill y ~collect ~otherwise:continue th ~cont);
    on_out_of_regions = (fun th ~retry -> on_out_of_regions y ~collect th ~retry);
    stats = (fun () -> stats y);
  }
