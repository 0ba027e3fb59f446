(* Structure-of-arrays minimum heap over int payloads.

   Priorities, insertion sequence numbers and values live in three
   parallel [int] arrays — no per-entry record and no boxed value, so a
   push or pop is plain integer stores with no write barrier.  The
   sequence number breaks priority ties in FIFO order, which keeps the
   simulator deterministic.

   Sift operations move the hole rather than swapping triples: one read of
   the displaced entry, then parent/child moves, then a single write. *)

type t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
  mutable last_prio : int;
}

let create () =
  { prio = [||]; seq = [||]; values = [||]; len = 0; next_seq = 0; last_prio = 0 }

let length t = t.len

let[@inline] is_empty t = t.len = 0

let grow t =
  let capacity = Array.length t.prio in
  let capacity' = if capacity = 0 then 8 else capacity * 2 in
  let extend a =
    let a' = Array.make capacity' 0 in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.prio <- extend t.prio;
  t.seq <- extend t.seq;
  t.values <- extend t.values

(* (p, s) < entry at index [j]? *)
let[@inline] before t p s j =
  let pj = Array.unsafe_get t.prio j in
  p < pj || (p = pj && s < Array.unsafe_get t.seq j)

let[@inline] set_entry t i p s v =
  Array.unsafe_set t.prio i p;
  Array.unsafe_set t.seq i s;
  Array.unsafe_set t.values i v

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.prio dst (Array.unsafe_get t.prio src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

let add t ~priority value =
  if t.len = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  (* sift the hole up from the new slot *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t priority s parent then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue_ := false
  done;
  set_entry t !i priority s value

let[@inline] min_priority t =
  if t.len = 0 then invalid_arg "Binary_heap.min_priority: empty";
  Array.unsafe_get t.prio 0

(* The priority of the popped entry is parked in [last_prio] rather than
   returned in a tuple: the engine pops ~10^7 events per simulated second
   and a boxed pair per pop is measurable without flambda. *)
let pop_min_value t =
  if t.len = 0 then invalid_arg "Binary_heap.pop_min_value: empty";
  let top_prio = Array.unsafe_get t.prio 0 in
  let top = Array.unsafe_get t.values 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* displaced last entry sifts down from the root hole *)
    let p = Array.unsafe_get t.prio n in
    let s = Array.unsafe_get t.seq n in
    let v = Array.unsafe_get t.values n in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let smallest = if r < n && before t (Array.unsafe_get t.prio r) (Array.unsafe_get t.seq r) l then r else l in
        if before t p s smallest then continue_ := false
        else begin
          move t ~src:smallest ~dst:!i;
          i := smallest
        end
      end
    done;
    set_entry t !i p s v
  end;
  t.last_prio <- top_prio;
  top

let[@inline] popped_priority t = t.last_prio

let clear t = t.len <- 0

let reset t =
  clear t;
  t.next_seq <- 0;
  t.last_prio <- 0
