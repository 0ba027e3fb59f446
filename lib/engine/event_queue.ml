module Binary_heap = Gcr_util.Binary_heap

(* The lane is a power-of-two ring, so an index wraps with one mask.  It
   only ever holds events due at [now]: the clock moves only when the heap
   pops, and the heap pops only ahead of an empty lane or at [now]. *)
type t = {
  heap : Binary_heap.t;
  mutable now : int;
  mutable lane : int array;
  mutable lane_head : int;
  mutable lane_len : int;
}

let create () =
  { heap = Binary_heap.create (); now = 0; lane = Array.make 16 0; lane_head = 0; lane_len = 0 }

let reset t =
  Binary_heap.reset t.heap;
  t.now <- 0;
  t.lane_head <- 0;
  t.lane_len <- 0

let[@inline] now t = t.now

let[@inline] is_empty t = t.lane_len = 0 && Binary_heap.is_empty t.heap

let grow_lane t =
  let cap = Array.length t.lane in
  let lane = Array.make (2 * cap) 0 in
  for i = 0 to t.lane_len - 1 do
    lane.(i) <- t.lane.((t.lane_head + i) land (cap - 1))
  done;
  t.lane <- lane;
  t.lane_head <- 0

let[@inline] add t ~time v =
  if time = t.now then begin
    if t.lane_len = Array.length t.lane then grow_lane t;
    let lane = t.lane in
    Array.unsafe_set lane ((t.lane_head + t.lane_len) land (Array.length lane - 1)) v;
    t.lane_len <- t.lane_len + 1
  end
  else if time > t.now then Binary_heap.add t.heap ~priority:time v
  else invalid_arg "Event_queue.add: time in the past"

let[@inline] next_time t =
  if t.lane_len > 0 then t.now
  else if Binary_heap.is_empty t.heap then invalid_arg "Event_queue.next_time: empty"
  else Binary_heap.min_priority t.heap

let[@inline] pop t =
  if t.lane_len > 0 && (Binary_heap.is_empty t.heap || Binary_heap.min_priority t.heap > t.now)
  then begin
    let lane = t.lane in
    let v = Array.unsafe_get lane t.lane_head in
    t.lane_head <- (t.lane_head + 1) land (Array.length lane - 1);
    t.lane_len <- t.lane_len - 1;
    v
  end
  else if Binary_heap.is_empty t.heap then invalid_arg "Event_queue.pop: empty"
  else begin
    let v = Binary_heap.pop_min_value t.heap in
    t.now <- Binary_heap.popped_priority t.heap;
    v
  end
