type t = {
  heap : Heap.t;
  space : Region.space;
  mutable current : Region.t option;
}

type outcome =
  | Allocated of { obj : Obj_model.id; refilled : bool }
  | Out_of_regions

let create heap ~space =
  if Region.space_equal space Region.Free then invalid_arg "Allocator.create: free space";
  { heap; space; current = None }

let space t = t.space

let take_fresh t =
  match Heap.take_free_region t.heap ~space:t.space with
  | None -> None
  | Some r ->
      t.current <- Some r;
      Some r

let alloc t ~size ~nfields =
  let fresh () =
    match take_fresh t with
    | None -> Out_of_regions
    | Some r ->
        let obj = Heap.alloc_in_region t.heap r ~size ~nfields in
        if Obj_model.is_null obj then
          (* A fresh region cannot fit the object: object sizes are capped
             well below the region size, so this is a programming error. *)
          invalid_arg "Allocator.alloc: object larger than a region"
        else Allocated { obj; refilled = true }
  in
  match t.current with
  | None -> fresh ()
  | Some r ->
      let obj = Heap.alloc_in_region t.heap r ~size ~nfields in
      if Obj_model.is_null obj then fresh () else Allocated { obj; refilled = false }

let retire t = t.current <- None

let refill t =
  retire t;
  take_fresh t

let current_region t = t.current

let move_object t id =
  match t.current with
  | Some dst when Heap.move_object t.heap id dst -> true
  | Some _ | None -> (
      match refill t with
      | Some dst -> Heap.move_object t.heap id dst
      | None -> false)
