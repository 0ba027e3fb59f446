module Heap = Gcr_heap.Heap
module Obj_model = Gcr_heap.Obj_model
module Cost_model = Gcr_mach.Cost_model
module Ivec = Gcr_util.Ivec

exception Trace_failure of string

(* The mark stack belongs to the caller (a run-owned scratch vector of
   [Gc_types.ctx]), so creating a tracer allocates no stack. *)
type t = {
  ctx : Gc_types.ctx;
  store : Obj_model.store;  (** cached: the heap's store record is stable *)
  stack : Ivec.t;
  use_scratch : bool;
  update_region_live : bool;
  filtered : bool;  (** a filter was given: call [should_visit] and [on_mark] *)
  should_visit : Obj_model.id -> bool;
  on_mark : Obj_model.id -> int;
  mutable objects_marked : int;
  mutable words_marked : int;
  mutable edges_seen : int;
}

let visit_all _ = true

let mark_free _ = 0

let create ctx ~stack ~use_scratch ~update_region_live ?should_visit ?on_mark () =
  Ivec.clear stack;
  {
    ctx;
    store = Heap.store ctx.Gc_types.heap;
    stack;
    use_scratch;
    update_region_live;
    filtered = Option.is_some should_visit || Option.is_some on_mark;
    should_visit = Option.value should_visit ~default:visit_all;
    on_mark = Option.value on_mark ~default:mark_free;
    objects_marked = 0;
    words_marked = 0;
    edges_seen = 0;
  }

let is_marked t id =
  if t.use_scratch then Heap.is_scratch_marked t.ctx.Gc_types.heap id
  else Heap.is_marked t.ctx.Gc_types.heap id

let set_marked t id =
  if t.use_scratch then Heap.set_scratch_marked t.ctx.Gc_types.heap id
  else Heap.set_marked t.ctx.Gc_types.heap id

(* Mark at push: each object enters the stack at most once.  Liveness,
   mark and filter checks are all flat-array reads. *)
let add_root t id =
  if not (Obj_model.is_null id) then
    if
      Obj_model.is_live t.store id
      && (not (is_marked t id))
      && ((not t.filtered) || t.should_visit id)
    then begin
      set_marked t id;
      Ivec.push t.stack id
    end

let add_roots t ids = List.iter (add_root t) ids

(* The store's planes, the mark epoch and the tracer's configuration are
   read once per slice.  The planes stay valid for the whole slice because
   nothing here allocates a simulated object: [on_mark] (the scavenge's
   copy) only moves one.  An unfiltered trace (every caller but the
   scavenge) makes no indirect call per object or edge. *)
let drain_slice t ~budget =
  let heap = t.ctx.Gc_types.heap in
  let store = t.store in
  let stack = t.stack in
  let cost_model = t.ctx.Gc_types.cost in
  let mark_per_object = cost_model.Cost_model.mark_per_object in
  let mark_per_edge = cost_model.Cost_model.mark_per_edge in
  let filtered = t.filtered in
  let should_visit = t.should_visit in
  let on_mark = t.on_mark in
  let update_region_live = t.update_region_live in
  let flags = Obj_model.flags_plane store in
  let bound = Obj_model.id_bound store in
  let sizes = Obj_model.size_plane store in
  let regions = Obj_model.region_plane store in
  let marks =
    if t.use_scratch then Obj_model.scratch_plane store else Obj_model.mark_plane store
  in
  let epoch = if t.use_scratch then Heap.current_scratch_epoch heap else Heap.current_epoch heap in
  let nfields = Obj_model.nfields_plane store in
  let foff = Obj_model.foff_plane store in
  let arena = Obj_model.arena_plane store in
  let cost = ref 0 in
  let processed = ref 0 in
  while !processed < budget && Ivec.length stack > 0 do
    let id = Ivec.pop stack in
    incr processed;
    (* The id was live and marked when pushed; objects are only removed by
       region release, which should not happen mid-trace for visited
       spaces — but stay defensive across collector fallbacks. *)
    if Obj_model.live_in ~flags ~bound id then begin
      let size = Array.unsafe_get sizes id in
      t.objects_marked <- t.objects_marked + 1;
      t.words_marked <- t.words_marked + size;
      if update_region_live then begin
        let r = Heap.region heap (Array.unsafe_get regions id) in
        r.Gcr_heap.Region.live_words <- r.Gcr_heap.Region.live_words + size
      end;
      cost := !cost + mark_per_object;
      if filtered then cost := !cost + on_mark id;
      (* Fields: one contiguous arena extent.  Read the base after
         [on_mark] (it may move the object). *)
      let nf = Array.unsafe_get nfields id in
      let base = Array.unsafe_get foff id in
      t.edges_seen <- t.edges_seen + nf;
      cost := !cost + (mark_per_edge * nf);
      for i = 0 to nf - 1 do
        let child = Array.unsafe_get arena (base + i) in
        (* add_root, inlined over the hoisted planes *)
        if
          Obj_model.live_in ~flags ~bound child
          && Array.unsafe_get marks child <> epoch
          && ((not filtered) || should_visit child)
        then begin
          Array.unsafe_set marks child epoch;
          Ivec.push stack child
        end
      done
    end
  done;
  !cost

(* Most workers of a parallel pause find the stack empty: answer them
   before hoisting anything. *)
let drain t ~budget = if Ivec.is_empty t.stack then 0 else drain_slice t ~budget

let pending t = not (Ivec.is_empty t.stack)

let objects_marked t = t.objects_marked

let words_marked t = t.words_marked

let edges_seen t = t.edges_seen
