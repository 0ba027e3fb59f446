module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Allocator = Gcr_heap.Allocator
module Vec = Gcr_util.Vec
module Ivec = Gcr_util.Ivec
module Cost_model = Gcr_mach.Cost_model

exception Evacuation_failure

type t = {
  ctx : Gc_types.ctx;
  concurrent : bool;
  choose_target : Obj_model.id -> Allocator.t;
  queue : Region.t Vec.t;
  mutable queue_pos : int;
  mutable obj_pos : int;  (** cursor into the current region's object vec *)
  mutable words_copied : int;
  mutable objects_copied : int;
  mutable regions_released : int;
}

let create ctx ~concurrent ~choose_target =
  {
    ctx;
    concurrent;
    choose_target;
    queue = Vec.create ();
    queue_pos = 0;
    obj_pos = 0;
    words_copied = 0;
    objects_copied = 0;
    regions_released = 0;
  }

let add_region t (r : Region.t) =
  if r.pinned then invalid_arg "Evacuator.add_region: pinned region";
  Vec.push t.queue r

let finished t = t.queue_pos >= Vec.length t.queue

let copy_cost t size =
  let c = t.ctx.Gc_types.cost in
  let per_object =
    if t.concurrent then c.Cost_model.copy_per_object_concurrent else c.Cost_model.copy_per_object
  in
  per_object + (c.Cost_model.copy_per_word * size)

(* Copy one live resident object out of its region; raises on to-space
   exhaustion. *)
let evacuate_object t id =
  let heap = t.ctx.Gc_types.heap in
  let target = t.choose_target id in
  let rec attempt retried =
    match Allocator.current_region target with
    | Some dst when Heap.move_object heap id dst -> ()
    | Some _ | None ->
        if retried then raise Evacuation_failure
        else begin
          (match Allocator.refill target with
          | None -> raise Evacuation_failure
          | Some _ -> ());
          attempt true
        end
  in
  attempt false;
  Heap.set_obj_age heap id (Heap.obj_age heap id + 1);
  let size = Heap.obj_size heap id in
  t.words_copied <- t.words_copied + size;
  t.objects_copied <- t.objects_copied + 1;
  copy_cost t size

let step t ~budget =
  let heap = t.ctx.Gc_types.heap in
  let cost = ref 0 in
  let processed = ref 0 in
  while !processed < budget && not (finished t) do
    let r = Vec.get t.queue t.queue_pos in
    if t.obj_pos >= Ivec.length r.Region.objects then begin
      (* Region fully scanned: everything live has moved out; release it,
         which reclaims the stragglers (dead objects). *)
      Heap.release_region heap r;
      t.regions_released <- t.regions_released + 1;
      t.queue_pos <- t.queue_pos + 1;
      t.obj_pos <- 0;
      cost := !cost + t.ctx.Gc_types.cost.Cost_model.sweep_per_region
    end
    else begin
      let id = Ivec.get r.Region.objects t.obj_pos in
      t.obj_pos <- t.obj_pos + 1;
      incr processed;
      if
        Heap.is_live heap id
        && Heap.obj_region heap id = r.Region.index
        && Heap.is_marked heap id
      then cost := !cost + evacuate_object t id
    end
  done;
  !cost

let words_copied t = t.words_copied

let objects_copied t = t.objects_copied

let regions_released t = t.regions_released
