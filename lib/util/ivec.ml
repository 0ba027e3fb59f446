(* An [int array] plus a length.  Every store is an immediate write (no
   [caml_modify]) and removal never has to scrub freed slots, since an int
   keeps nothing alive: this is why [clear] is O(1) where [Vec.clear]
   writes a dummy into every slot. *)

type t = {
  mutable data : int array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let make ~capacity =
  if capacity < 0 then invalid_arg "Ivec.make: negative capacity";
  { data = Array.make capacity 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let check_bounds t i = if i < 0 || i >= t.len then invalid_arg "Ivec: index out of bounds"

let get t i =
  check_bounds t i;
  Array.unsafe_get t.data i

let set t i v =
  check_bounds t i;
  Array.unsafe_set t.data i v

let grow t =
  let capacity = Array.length t.data in
  let data' = Array.make (if capacity = 0 then 8 else capacity * 2) 0 in
  Array.blit t.data 0 data' 0 t.len;
  t.data <- data'

let push t v =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data t.len v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Ivec.pop: empty";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let clear t = t.len <- 0

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

(* Kept elements only ever move down, so one forward pass preserves their
   order. *)
let filter_in_place keep t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    let v = Array.unsafe_get t.data i in
    if keep v then begin
      Array.unsafe_set t.data !n v;
      incr n
    end
  done;
  t.len <- !n
