module Heap = Gcr_heap.Heap
module Region = Gcr_heap.Region
module Obj_model = Gcr_heap.Obj_model
module Ivec = Gcr_util.Ivec

type t = {
  heap : Heap.t;
  entries : Ivec.t;  (** in the order the ids were remembered *)
}

let create heap = { heap; entries = Ivec.create () }

let remember t id =
  if not (Heap.obj_remembered t.heap id) then begin
    Heap.set_obj_remembered t.heap id true;
    Ivec.push t.entries id
  end

let iter t f = Ivec.iter f t.entries

let size t = Ivec.length t.entries

let is_young t id =
  match Heap.obj_space t.heap id with
  | Region.Eden | Region.Survivor -> true
  | Region.Free | Region.Old -> false

let points_young t target =
  (not (Obj_model.is_null target)) && Heap.is_live t.heap target && is_young t target

(* A surviving entry keeps its place, so the next scavenge scans the
   remembered roots in the same order as before the rebuild. *)
let rebuild t ~extra =
  let keep id =
    Heap.is_live t.heap id
    && begin
         Heap.set_obj_remembered t.heap id false;
         Obj_model.exists_fields (Heap.store t.heap) id (points_young t)
       end
  in
  Ivec.filter_in_place
    (fun id ->
      let kept = keep id in
      if kept then Heap.set_obj_remembered t.heap id true;
      kept)
    t.entries;
  List.iter (fun id -> if keep id then remember t id) extra

let clear t =
  Ivec.iter
    (fun id -> if Heap.is_live t.heap id then Heap.set_obj_remembered t.heap id false)
    t.entries;
  Ivec.clear t.entries
