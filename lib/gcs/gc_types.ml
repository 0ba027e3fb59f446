type ctx = {
  heap : Gcr_heap.Heap.t;
  engine : Gcr_engine.Engine.t;
  cost : Gcr_mach.Cost_model.t;
  machine : Gcr_mach.Machine.t;
  iter_roots : ((Gcr_heap.Obj_model.id -> unit) -> unit) ref;
  allocators : Gcr_heap.Allocator.t Gcr_util.Vec.t;
  oom : string -> unit;
  pause_marks : Gcr_util.Ivec.t;
  conc_marks : Gcr_util.Ivec.t;
  survivors : Gcr_util.Ivec.t;
}

let make_ctx ~heap ~engine ~cost ~machine =
  {
    heap;
    engine;
    cost;
    machine;
    iter_roots = ref (fun _f -> ());
    allocators = Gcr_util.Vec.create ();
    oom =
      (fun reason ->
        let module Engine = Gcr_engine.Engine in
        let module Obs = Gcr_obs.Obs in
        let obs = Engine.obs engine in
        Obs.oom obs ~time:(Engine.now engine) ~reason_id:(Obs.intern obs reason);
        Engine.abort engine ~reason:("OutOfMemoryError: " ^ reason));
    pause_marks = Gcr_util.Ivec.create ();
    conc_marks = Gcr_util.Ivec.create ();
    survivors = Gcr_util.Ivec.create ();
  }

let[@inline] free_fraction ctx =
  let heap = ctx.heap in
  float_of_int (Gcr_heap.Heap.free_regions heap) /. float_of_int (Gcr_heap.Heap.total_regions heap)

let[@inline] low_free ctx =
  Gcr_heap.Heap.free_regions ctx.heap * 50 < Gcr_heap.Heap.total_regions ctx.heap

let root_scan_cost nroots = 20 * nroots

type waiters = (Gcr_engine.Engine.thread * (unit -> unit)) Gcr_util.Vec.t

let waiters () = Gcr_util.Vec.create ()

let park ctx waiters th cont =
  Gcr_engine.Engine.park ctx.engine th;
  Gcr_util.Vec.push waiters (th, cont)

let resume_waiters ctx waiters =
  let pending = Gcr_util.Vec.to_list waiters in
  Gcr_util.Vec.clear waiters;
  List.iter (fun (th, cont) -> Gcr_engine.Engine.resume ctx.engine th cont) pending

type stats = {
  collections : int;
  full_collections : int;
  words_copied : int;
  objects_marked : int;
  stalls : int;
}

type t = {
  name : string;
  read_barrier : unit -> int;
  write_barrier : unit -> int;
  on_alloc : Gcr_heap.Obj_model.id -> unit;
  on_pointer_write :
    src:Gcr_heap.Obj_model.id ->
    old_target:Gcr_heap.Obj_model.id ->
    new_target:Gcr_heap.Obj_model.id ->
    unit;
  after_refill : Gcr_engine.Engine.thread -> cont:(unit -> unit) -> unit;
  on_out_of_regions : Gcr_engine.Engine.thread -> retry:(unit -> unit) -> unit;
  stats : unit -> stats;
}

let no_stats =
  { collections = 0; full_collections = 0; words_copied = 0; objects_marked = 0; stalls = 0 }
