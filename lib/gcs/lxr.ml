module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Engine = Gcr_engine.Engine
module Vec = Gcr_util.Vec
module Ivec = Gcr_util.Ivec
module Cost_model = Gcr_mach.Cost_model
module Event = Gcr_obs.Event

type pause_info = {
  pending_decrements : int;
  pinned : Obj_model.id list;
  rc_of : Obj_model.id -> int;
}

type config = {
  rc_workers : int;
  trace_workers : int;
  trigger_free_fraction : float;
  garbage_threshold : float;
  debug : (pause_info -> unit) option;
}

let default_config ~cpus =
  {
    rc_workers = 1;
    trace_workers = max 1 (cpus / 4);
    trigger_free_fraction = 0.35;
    garbage_threshold = 0.25;
    debug = None;
  }

(* Deferred RC buffers hold (id, birth-serial) pairs flattened into int
   vecs.  Ids are recycled across pauses, so an entry is applied only if
   the id still names the object it was logged against: live and same
   serial.  Stale entries are skipped (they still cost a processing
   cycle, as a real drain would pay to examine them). *)
type state = {
  ctx : Gc_types.ctx;
  config : config;
  store : Obj_model.store;
  rc_pool : Worker_pool.t;  (** STW RC-update pause phases *)
  trace_pool : Worker_pool.t;  (** backup concurrent cycle trace *)
  waiters : Gc_types.waiters;
  mutable rc : int array;  (** reference counts by id; see [rc] *)
  mutable gc_pending : bool;
  mutable live_census_done : bool;
      (** set at the first pause, after recounting [Region.live_words] from
          the residents.  Setup-time allocations (the long-lived segment
          spine) bypass [on_alloc], so the incremental accounting only
          becomes exact once this census has run *)
  mutable eden_since_pause : int;
  mutable pause_budget : int;
  mutable low_free_streak : int;
  inc_buf : Ivec.t;  (** increments logged by the write barrier *)
  dec_queue : Ivec.t;  (** deferred decrements (worklist during drains) *)
  births : Ivec.t;  (** objects allocated since the last pause *)
  mutable pins_cur : Ivec.t;  (** roots pinned by the current pause *)
  mutable pins_prev : Ivec.t;  (** previous pause's pins, to unpin *)
  dirty_regions : bool array;
      (** regions that received in-place frees this pause; their object
          vecs are compacted before the pause ends (id recycling would
          otherwise alias the stale entries) *)
  (* backup tracing cycle for cyclic garbage *)
  mutable cycle_session : int;  (** bumped to cancel in-flight trace work *)
  mutable cycle_marking : bool;
  mutable cycle_tracer : Tracer.t option;
  mutable cycle_ready : bool;  (** concurrent drain done; finalize at next pause *)
  (* per-pause cost accumulators *)
  mutable pause_rc_ops : int;
  mutable pause_freed : int;
  (* stats *)
  mutable collections : int;
  mutable full_collections : int;
  mutable words_copied : int;
  mutable objects_marked : int;
  mutable stalls : int;
}

let slice_budget = 64

(* Reference counts live in this side table, not in the object store, so
   the other collectors neither store nor grow them.  An id past its end
   reads 0: the run builds the long-lived spine after [make] without
   [on_alloc], and those ids are fresh.  [on_alloc] zeroes a recycled
   id. *)
let[@inline] rc s id = if id < Array.length s.rc then Array.unsafe_get s.rc id else 0

let set_rc s id v =
  let n = Array.length s.rc in
  if id >= n then begin
    let grown = Array.make (max (id + 1) (2 * n)) 0 in
    Array.blit s.rc 0 grown 0 n;
    s.rc <- grown
  end;
  Array.unsafe_set s.rc id v

let heap s = s.ctx.Gc_types.heap

let engine s = s.ctx.Gc_types.engine

let evac_reserve s = max 2 (Heap.total_regions (heap s) / 20)

let run_phase_opt s phase cost k =
  if cost <= 0 then k ()
  else Worker_pool.run_phase s.rc_pool ~phase ~work:(Worker_pool.one_shot cost) ~on_done:k

(* An entry is current iff the id still names the object it was logged
   against. *)
let[@inline] entry_valid s id ser =
  Obj_model.is_live s.store id && Obj_model.serial s.store id = ser

let[@inline] push_entry q store id =
  Ivec.push q id;
  Ivec.push q (Obj_model.serial store id)

(* Free one object in place: its region keeps the garbage words (what
   fragmentation-driven evacuation later reclaims) and is flagged for
   object-vec compaction; the object's out-edges become deferred
   decrements. *)
let free_one s id =
  let store = s.store in
  let size = Obj_model.size store id in
  let ridx = Obj_model.region store id in
  let r = Heap.region (heap s) ridx in
  r.Region.live_words <- r.Region.live_words - size;
  s.dirty_regions.(ridx) <- true;
  Obj_model.iter_fields store id (fun child ->
      if (not (Obj_model.is_null child)) && Obj_model.is_live store child then
        push_entry s.dec_queue store child);
  Heap.free_object (heap s) id;
  s.pause_freed <- s.pause_freed + 1

(* ---- pause phase 1: root pinning ---- *)

(* Rotate the pin buffers and pin this pause's roots: each root gets +1 so
   nothing the mutator holds directly can reach rc 0; last pause's pins
   are pushed as decrements in phase 3. *)
let scan_roots s =
  let store = s.store in
  let tmp = s.pins_prev in
  s.pins_prev <- s.pins_cur;
  s.pins_cur <- tmp;
  Ivec.clear s.pins_cur;
  let nroots = ref 0 in
  !(s.ctx.Gc_types.iter_roots) (fun id ->
      if Obj_model.is_live store id then begin
        incr nroots;
        set_rc s id (rc s id + 1);
        push_entry s.pins_cur store id
      end);
  !nroots

(* ---- pause phase 2: apply buffered increments ---- *)

(* All increments logged since the last pause are applied before any
   decrement is processed, so a count can only pass through zero at its
   true final value. *)
let apply_incs s =
  let q = s.inc_buf in
  let n = Ivec.length q in
  let i = ref 0 in
  while !i < n do
    let id = Ivec.get q !i and ser = Ivec.get q (!i + 1) in
    i := !i + 2;
    if entry_valid s id ser then set_rc s id (rc s id + 1)
  done;
  Ivec.clear q;
  n / 2

(* ---- pause phase 3: drain deferred decrements ---- *)

let queue_prev_pins s =
  let q = s.pins_prev in
  let n = Ivec.length q in
  let i = ref 0 in
  while !i < n do
    Ivec.push s.dec_queue (Ivec.get q !i);
    Ivec.push s.dec_queue (Ivec.get q (!i + 1));
    i := !i + 2
  done;
  Ivec.clear q

let drain_decs s =
  let q = s.dec_queue in
  (* the queue grows as frees cascade; iterate by index, then clear *)
  let i = ref 0 in
  while !i < Ivec.length q do
    let id = Ivec.get q !i and ser = Ivec.get q (!i + 1) in
    i := !i + 2;
    s.pause_rc_ops <- s.pause_rc_ops + 1;
    if entry_valid s id ser then begin
      let r = rc s id - 1 in
      set_rc s id r;
      if r <= 0 then free_one s id
    end
  done;
  Ivec.clear q

(* Born-dead processing: an object allocated since the last pause that
   ended up with rc 0 after increments and pins was never reachable — free
   it now, cascading, to a fixpoint (one born-dead object can drop another
   birth to zero). *)
let process_births s =
  let progress = ref true in
  while !progress do
    progress := false;
    let b = s.births in
    let n = Ivec.length b in
    let i = ref 0 in
    while !i < n do
      let id = Ivec.get b !i and ser = Ivec.get b (!i + 1) in
      i := !i + 2;
      if entry_valid s id ser && rc s id = 0 then begin
        free_one s id;
        progress := true
      end
    done;
    if !progress then drain_decs s
  done;
  Ivec.clear s.births

(* ---- pause phase 4: backup-cycle finalization ---- *)

let reset_cycle s =
  s.cycle_session <- s.cycle_session + 1;
  s.cycle_marking <- false;
  s.cycle_tracer <- None;
  s.cycle_ready <- false

(* Final STW trace drain (SATB stragglers and fresh roots), then sweep:
   every live object the completed trace did not reach is cyclic (or
   trace-invisible floating) garbage that pure RC can never reclaim.
   Sweeping frees in place and defers decrements like any other free. *)
let finalize_cycle s k =
  match s.cycle_tracer with
  | Some tracer when s.cycle_marking && s.cycle_ready ->
      !(s.ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
      Worker_pool.run_phase s.rc_pool ~phase:Event.Cycle_trace
        ~work:(fun ~worker:_ -> Tracer.drain tracer ~budget:slice_budget)
        ~on_done:(fun () ->
          s.objects_marked <- s.objects_marked + Tracer.objects_marked tracer;
          let h = heap s in
          let cost = s.ctx.Gc_types.cost in
          let freed_before = s.pause_freed in
          let ops_before = s.pause_rc_ops in
          let regions_swept = ref 0 in
          Heap.iter_regions
            (fun r ->
              if
                (not (Region.space_equal r.Region.space Region.Free))
                && r.Region.used_words > 0
              then begin
                incr regions_swept;
                Heap.iter_resident_objects h r (fun id ->
                    if not (Heap.is_marked h id) then free_one s id)
              end)
            h;
          drain_decs s;
          reset_cycle s;
          let sweep_cost =
            ((s.pause_freed - freed_before) * cost.Cost_model.mark_per_object)
            + ((s.pause_rc_ops - ops_before) * cost.Cost_model.rc_update_per_entry)
            + (!regions_swept * cost.Cost_model.sweep_per_region)
          in
          run_phase_opt s Event.Sweep sweep_cost k)
  | _ -> k ()

(* ---- pause phase 5: opportunistic evacuation ---- *)

(* Regions whose words are entirely dead are released outright (LXR's
   block recycling); fragmented regions — garbage above the threshold
   share of their used words — are evacuated into old-space targets,
   garbage-richest (least live) first, under a rolling to-space budget as
   in [Conc_cycle.select_cset]. *)
let do_evacuation s =
  let h = heap s in
  let store = s.store in
  let cost_model = s.ctx.Gc_types.cost in
  let region_words = Heap.region_words h in
  Vec.iter Allocator.retire s.ctx.Gc_types.allocators;
  let cost = ref 0 in
  Heap.iter_regions
    (fun r ->
      if
        (not (Region.space_equal r.Region.space Region.Free))
        && (not r.Region.pinned)
        && r.Region.live_words <= 0
      then begin
        Heap.release_region h r;
        s.dirty_regions.(r.Region.index) <- false;
        cost := !cost + cost_model.Cost_model.sweep_per_region
      end)
    h;
  let candidates = ref [] in
  Heap.iter_regions
    (fun r ->
      if
        (not (Region.space_equal r.Region.space Region.Free))
        && (not r.Region.pinned)
        && r.Region.used_words > 0
      then begin
        let garbage = r.Region.used_words - r.Region.live_words in
        if
          float_of_int garbage
          > s.config.garbage_threshold *. float_of_int r.Region.used_words
        then candidates := r :: !candidates
      end)
    h;
  let by_liveness a b = compare a.Region.live_words b.Region.live_words in
  let sorted = List.sort by_liveness !candidates in
  (* To-space budget: the whole free pool.  The reserve exists precisely to
     guarantee evacuation targets, and the rolling update below credits a
     fully-evacuated source region back, so net free regions never drop. *)
  let budget = ref (Heap.free_regions h * region_words) in
  let cset =
    List.filter
      (fun r ->
        if r.Region.live_words <= !budget then begin
          budget := !budget - r.Region.live_words + region_words;
          true
        end
        else false)
      sorted
  in
  let target = Allocator.create h ~space:Region.Old in
  let evac_failed = ref false in
  List.iter
    (fun (r : Region.t) ->
      if not !evac_failed then begin
        s.dirty_regions.(r.Region.index) <- true;
        let moved_all = ref true in
        Heap.iter_resident_objects h r (fun id ->
            if not !evac_failed then begin
              let size = Obj_model.size store id in
              let rec place () =
                let placed =
                  match Allocator.current_region target with
                  | Some dst -> Heap.move_object h id dst
                  | None -> false
                in
                if placed then begin
                  (match Allocator.current_region target with
                  | Some dst ->
                      dst.Region.live_words <- dst.Region.live_words + size
                  | None -> assert false);
                  r.Region.live_words <- r.Region.live_words - size;
                  s.words_copied <- s.words_copied + size;
                  cost :=
                    !cost
                    + cost_model.Cost_model.copy_per_object
                    + (cost_model.Cost_model.copy_per_word * size)
                end
                else
                  match Allocator.refill target with
                  | Some _ -> place ()
                  | None ->
                      evac_failed := true;
                      moved_all := false
              in
              place ()
            end
            else moved_all := false);
        if !moved_all && not !evac_failed then begin
          Heap.release_region h r;
          s.dirty_regions.(r.Region.index) <- false;
          cost := !cost + cost_model.Cost_model.sweep_per_region
        end
      end)
    cset;
  Allocator.retire target;
  !cost

(* ---- pause bookkeeping and wrap-up ---- *)

let compact_dirty s =
  let h = heap s in
  for i = 0 to Array.length s.dirty_regions - 1 do
    if s.dirty_regions.(i) then begin
      s.dirty_regions.(i) <- false;
      let r = Heap.region h i in
      if not (Region.space_equal r.Region.space Region.Free) then
        Heap.compact_region_objects h r
    end
  done

(* After a full compaction every RC artifact is stale: buffers refer to
   swept objects and counts predate the sweep.  Rebuild from the ground
   truth — recount in-edges over all residents and re-pin the roots. *)
let rebuild_rc s =
  reset_cycle s;
  Ivec.clear s.inc_buf;
  Ivec.clear s.dec_queue;
  Ivec.clear s.births;
  Ivec.clear s.pins_prev;
  Ivec.clear s.pins_cur;
  Array.fill s.dirty_regions 0 (Array.length s.dirty_regions) false;
  let h = heap s in
  let store = s.store in
  Heap.iter_regions
    (fun r ->
      r.Region.live_words <- 0;
      Heap.iter_resident_objects h r (fun id -> set_rc s id 0))
    h;
  Heap.iter_regions
    (fun r ->
      Heap.iter_resident_objects h r (fun id ->
          r.Region.live_words <- r.Region.live_words + Obj_model.size store id;
          Obj_model.iter_fields store id (fun child ->
              if (not (Obj_model.is_null child)) && Obj_model.is_live store child then
                set_rc s child (rc s child + 1))))
    h;
  !(s.ctx.Gc_types.iter_roots) (fun id ->
      if Obj_model.is_live store id then begin
        set_rc s id (rc s id + 1);
        push_entry s.pins_cur store id
      end)

let maybe_start_cycle s =
  if
    (not s.cycle_marking)
    && (not (Worker_pool.busy s.trace_pool))
    && Gc_types.free_fraction s.ctx < s.config.trigger_free_fraction
  then begin
    s.cycle_session <- s.cycle_session + 1;
    let h = heap s in
    ignore (Heap.begin_mark_epoch h);
    let tracer =
      Tracer.create s.ctx ~stack:s.ctx.Gc_types.conc_marks ~use_scratch:false
        ~update_region_live:false ()
    in
    !(s.ctx.Gc_types.iter_roots) (Tracer.add_root tracer);
    s.cycle_tracer <- Some tracer;
    s.cycle_marking <- true;
    s.cycle_ready <- false;
    Some (s.cycle_session, tracer)
  end
  else None

let launch_concurrent_drain s (session, tracer) =
  let penalty = s.ctx.Gc_types.cost.Cost_model.concurrent_mark_penalty_pct in
  Worker_pool.run_phase s.trace_pool ~phase:Event.Cycle_trace
    ~work:(fun ~worker:_ ->
      if s.cycle_session <> session then 0
      else begin
        let c = Tracer.drain tracer ~budget:slice_budget in
        c + (c * penalty / 100)
      end)
    ~on_done:(fun () ->
      if s.cycle_session = session && s.cycle_marking then s.cycle_ready <- true)

let fire_debug s =
  match s.config.debug with
  | None -> ()
  | Some hook ->
      let pinned = ref [] in
      let n = Ivec.length s.pins_cur in
      let i = ref (n - 2) in
      while !i >= 0 do
        pinned := Ivec.get s.pins_cur !i :: !pinned;
        i := !i - 2
      done;
      hook
        {
          pending_decrements = Ivec.length s.dec_queue / 2;
          pinned = List.rev !pinned;
          rc_of = rc s;
        }

let normal_end s =
  let h = heap s in
  s.collections <- s.collections + 1;
  s.eden_since_pause <- 0;
  let headroom = Heap.free_regions h - evac_reserve s in
  s.pause_budget <- max 2 (headroom / 2);
  (* Never reserve the whole free pool: a starving mutator must be able to
     take at least one region after a pause, or starved pauses would
     full-compact the same heap state forever. *)
  Heap.set_alloc_reserve h (min (evac_reserve s) (max 0 (Heap.free_regions h - 1)));
  s.low_free_streak <- (if Gc_types.low_free s.ctx then s.low_free_streak + 1 else 0);
  if s.low_free_streak >= 4 then
    s.ctx.Gc_types.oom "LXR: GC overhead limit exceeded (heap too small)"
  else begin
    fire_debug s;
    let started = maybe_start_cycle s in
    Engine.release_stop (engine s);
    s.gc_pending <- false;
    Gc_types.resume_waiters s.ctx s.waiters;
    match started with
    | Some c -> launch_concurrent_drain s c
    | None -> ()
  end

let finish_pause s ~starved =
  compact_dirty s;
  let h = heap s in
  if starved && Heap.free_regions h <= Heap.alloc_reserve h then begin
    (* The pause freed no usable region for the starving mutator: fall
       back to the shared full mark-compact, then rebuild RC state from
       scratch. *)
    reset_cycle s;
    Full_compact.run s.ctx ~pool:s.rc_pool
      ~on_done:(fun (res : Full_compact.result) ->
        s.full_collections <- s.full_collections + 1;
        s.objects_marked <- s.objects_marked + res.Full_compact.objects_marked;
        rebuild_rc s;
        if Heap.free_regions h = 0 then
          s.ctx.Gc_types.oom "LXR: full GC freed no memory"
        else normal_end s)
  end
  else normal_end s

(* One-time ground-truth recount of [Region.live_words]: objects allocated
   during run setup (before the mutators start) never pass through
   [on_alloc], so the incremental balance starts understated.  Frees only
   happen inside pauses, so recounting at the first pause makes the
   incremental accounting exact from here on. *)
let ensure_live_census s =
  if not s.live_census_done then begin
    s.live_census_done <- true;
    let h = heap s in
    let store = s.store in
    Heap.iter_regions
      (fun r ->
        if not (Region.space_equal r.Region.space Region.Free) then begin
          r.Region.live_words <- 0;
          Heap.iter_resident_objects h r (fun id ->
              r.Region.live_words <- r.Region.live_words + Obj_model.size store id)
        end)
      h
  end

let run_pause s ~starved =
  let cost = s.ctx.Gc_types.cost in
  s.pause_rc_ops <- 0;
  s.pause_freed <- 0;
  ensure_live_census s;
  let nroots = scan_roots s in
  run_phase_opt s Event.Root_scan (Gc_types.root_scan_cost nroots) (fun () ->
      let inc_entries = apply_incs s in
      run_phase_opt s Event.Rc_increment
        (inc_entries * cost.Cost_model.rc_update_per_entry)
        (fun () ->
          queue_prev_pins s;
          drain_decs s;
          process_births s;
          let dec_cost =
            (s.pause_rc_ops * cost.Cost_model.rc_update_per_entry)
            + (s.pause_freed * cost.Cost_model.mark_per_object)
          in
          run_phase_opt s Event.Decrement_drain dec_cost (fun () ->
              finalize_cycle s (fun () ->
                  let evac_cost = do_evacuation s in
                  run_phase_opt s Event.Evacuate evac_cost (fun () ->
                      finish_pause s ~starved)))))

let trigger_pause s th cont ~starved ~reason =
  s.gc_pending <- true;
  Gc_types.park s.ctx s.waiters th cont;
  Engine.request_stop (engine s) ~reason (fun () -> run_pause s ~starved)

let make (ctx : Gc_types.ctx) config =
  let h = ctx.Gc_types.heap in
  let total = Heap.total_regions h in
  (* The trace pool is created first: pool creation order fixes thread
     ids, which the event stream carries. *)
  let trace_pool = Worker_pool.create ctx ~count:config.trace_workers ~name:"LXR" in
  let rc_pool = Worker_pool.create ctx ~count:config.rc_workers ~name:"LXR" in
  let s =
    {
      ctx;
      config;
      store = Heap.store h;
      rc_pool;
      trace_pool;
      waiters = Gc_types.waiters ();
      rc = Array.make 1024 0;
      gc_pending = false;
      live_census_done = false;
      eden_since_pause = 0;
      pause_budget = max 2 (total / 4);
      low_free_streak = 0;
      inc_buf = Ivec.create ();
      dec_queue = Ivec.create ();
      births = Ivec.create ();
      pins_cur = Ivec.create ();
      pins_prev = Ivec.create ();
      dirty_regions = Array.make total false;
      cycle_session = 0;
      cycle_marking = false;
      cycle_tracer = None;
      cycle_ready = false;
      pause_rc_ops = 0;
      pause_freed = 0;
      collections = 0;
      full_collections = 0;
      words_copied = 0;
      objects_marked = 0;
      stalls = 0;
    }
  in
  Heap.set_alloc_reserve h (evac_reserve s);
  let engine = ctx.Gc_types.engine in
  let store = s.store in
  let busy () = s.gc_pending || Engine.stop_requested engine in
  let after_refill th ~cont =
    s.eden_since_pause <- s.eden_since_pause + 1;
    if busy () then begin
      s.stalls <- s.stalls + 1;
      Gc_types.park ctx s.waiters th cont
    end
    else if
      s.eden_since_pause >= s.pause_budget
      || Heap.free_regions h <= Heap.alloc_reserve h + 1
    then trigger_pause s th cont ~starved:false ~reason:"LXR rc-update"
    else cont ()
  in
  let on_out_of_regions th ~retry =
    if busy () then begin
      s.stalls <- s.stalls + 1;
      Gc_types.park ctx s.waiters th retry
    end
    else trigger_pause s th retry ~starved:true ~reason:"LXR allocation failure"
  in
  let on_alloc id =
    if id < Array.length s.rc then Array.unsafe_set s.rc id 0;
    let r = Heap.region h (Obj_model.region store id) in
    r.Region.live_words <- r.Region.live_words + Obj_model.size store id;
    push_entry s.births store id;
    if s.cycle_marking then Heap.set_marked h id
  in
  let on_pointer_write ~src:_ ~old_target ~new_target =
    if not (Obj_model.is_null new_target) then push_entry s.inc_buf store new_target;
    if not (Obj_model.is_null old_target) then begin
      push_entry s.dec_queue store old_target;
      (* SATB: the overwritten reference may be the last path the backup
         trace would have taken *)
      match s.cycle_tracer with
      | Some tracer when s.cycle_marking -> Tracer.add_root tracer old_target
      | _ -> ()
    end
  in
  {
    Gc_types.name = "LXR";
    read_barrier = (fun () -> 0);
    write_barrier = (fun () -> ctx.Gc_types.cost.Cost_model.rc_barrier);
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
          stalls = s.stalls;
        });
  }
