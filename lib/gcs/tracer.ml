module Heap = Gcr_heap.Heap
module Obj_model = Gcr_heap.Obj_model
module Cost_model = Gcr_mach.Cost_model

exception Trace_failure of string

(* The mark stack is a raw int array rather than a Vec: popping must not
   box an option per object, and ids need no tail-clearing (they are
   immediate). *)
type t = {
  ctx : Gc_types.ctx;
  store : Obj_model.store;  (** cached: the heap's store record is stable *)
  use_scratch : bool;
  update_region_live : bool;
  filtered : bool;  (** a filter was given: call [should_visit] and [on_mark] *)
  should_visit : Obj_model.id -> bool;
  on_mark : Obj_model.id -> int;
  mutable stack : int array;
  mutable stack_len : int;
  mutable objects_marked : int;
  mutable words_marked : int;
  mutable edges_seen : int;
}

let visit_all _ = true

let mark_free _ = 0

let create ctx ~use_scratch ~update_region_live ?should_visit ?on_mark () =
  {
    ctx;
    store = Heap.store ctx.Gc_types.heap;
    use_scratch;
    update_region_live;
    filtered = Option.is_some should_visit || Option.is_some on_mark;
    should_visit = Option.value should_visit ~default:visit_all;
    on_mark = Option.value on_mark ~default:mark_free;
    stack = Array.make 256 0;
    stack_len = 0;
    objects_marked = 0;
    words_marked = 0;
    edges_seen = 0;
  }

let[@inline] push t id =
  if t.stack_len = Array.length t.stack then begin
    let b = Array.make (2 * Array.length t.stack) 0 in
    Array.blit t.stack 0 b 0 t.stack_len;
    t.stack <- b
  end;
  Array.unsafe_set t.stack t.stack_len id;
  t.stack_len <- t.stack_len + 1

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
      push t id
    end

let add_roots t ids = List.iter (add_root t) ids

(* [filtered] is read once per slice: an unfiltered trace (every caller
   but the scavenge) makes no indirect call per object or edge. *)
let drain t ~budget =
  let heap = t.ctx.Gc_types.heap in
  let store = t.store in
  let cost_model = t.ctx.Gc_types.cost in
  let mark_per_object = cost_model.Cost_model.mark_per_object in
  let mark_per_edge = cost_model.Cost_model.mark_per_edge in
  let filtered = t.filtered in
  let should_visit = t.should_visit in
  let on_mark = t.on_mark in
  let use_scratch = t.use_scratch in
  let update_region_live = t.update_region_live in
  let cost = ref 0 in
  let processed = ref 0 in
  while !processed < budget && t.stack_len > 0 do
    let top = t.stack_len - 1 in
    t.stack_len <- top;
    let id = Array.unsafe_get t.stack top in
    incr processed;
    (* The id was live and marked when pushed; objects are only removed by
       region release, which should not happen mid-trace for visited
       spaces — but stay defensive across collector fallbacks. *)
    if Obj_model.is_live store id then begin
      let size = Obj_model.size store id in
      t.objects_marked <- t.objects_marked + 1;
      t.words_marked <- t.words_marked + size;
      if update_region_live then begin
        let r = Heap.region heap (Obj_model.region store id) in
        r.Gcr_heap.Region.live_words <- r.Gcr_heap.Region.live_words + size
      end;
      cost := !cost + mark_per_object;
      if filtered then cost := !cost + on_mark id;
      (* Fields: one contiguous arena extent.  Read the base after
         [on_mark] (it may move the object). *)
      let nf = Obj_model.nfields store id in
      let base = Obj_model.field_base store id in
      t.edges_seen <- t.edges_seen + nf;
      cost := !cost + (mark_per_edge * nf);
      for i = 0 to nf - 1 do
        let child = Obj_model.arena_get store (base + i) in
        (* add_root, inlined with the per-tracer configuration hoisted *)
        if not (Obj_model.is_null child) then
          if
            Obj_model.is_live store child
            && (not
                  (if use_scratch then Heap.is_scratch_marked heap child
                   else Heap.is_marked heap child))
            && ((not filtered) || should_visit child)
          then begin
            if use_scratch then Heap.set_scratch_marked heap child
            else Heap.set_marked heap child;
            push t child
          end
      done
    end
  done;
  !cost

let pending t = t.stack_len > 0

let objects_marked t = t.objects_marked

let words_marked t = t.words_marked

let edges_seen t = t.edges_seen
