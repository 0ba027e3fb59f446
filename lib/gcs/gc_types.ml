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
