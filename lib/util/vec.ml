type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let check_bounds t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check_bounds t i;
  Array.unsafe_get t.data i

let set t i v =
  check_bounds t i;
  Array.unsafe_set t.data i v

let grow t v =
  let capacity = Array.length t.data in
  let capacity' = if capacity = 0 then 8 else capacity * 2 in
  let data' = Array.make capacity' v in
  Array.blit t.data 0 data' 0 t.len;
  (* [Array.make] filled the tail with [v]; re-point those slots at a
     surviving element, so that a [clear] leaves no stale copies of [v]
     alive in the unused tail (see [clear]). *)
  if t.len > 0 then begin
    let dummy = Array.unsafe_get data' 0 in
    for i = t.len to capacity' - 1 do
      Array.unsafe_set data' i dummy
    done
  end;
  t.data <- data'

let push t v =
  if t.len = Array.length t.data then grow t v;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

(* Slots beyond [len] must not retain the elements that once lived there
   (closures, heap objects) — that would keep them alive for as long as the
   vector itself.  There is no universal dummy ('a may be float, so
   [Obj.magic] tricks are unsafe); the first element serves instead, so a
   cleared vector retains exactly that one element until the next push or
   collection of the vector itself. *)
let clear t =
  if t.len > 0 then begin
    let dummy = Array.unsafe_get t.data 0 in
    for i = 1 to t.len - 1 do
      Array.unsafe_set t.data i dummy
    done;
    t.len <- 0
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> Array.unsafe_get t.data i)
