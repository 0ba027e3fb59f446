(** The engine's event queue and its clock.

    Events are int payloads due at a simulated time.  They pop in
    (time, seq) order, where seq is the order in which they were added:
    events due at the same time pop first-in, first-out.  Popping an event
    advances {!now} to its time.

    Two structures hold the events.  An event due later than {!now} goes
    into a {!Gcr_util.Binary_heap}.  An event due at {!now} (a zero-cycle
    step, a zero-delay timer or stall) goes into a FIFO lane: an int ring,
    O(1) to add and to pop.  The lane needs no sequence numbers of its
    own.  A heap entry due at {!now} was added while the clock was still
    earlier, so before every lane entry, and pops ahead of the lane; lane
    entries come after it in the order they were added.  So the two
    structures pop exactly the (time, seq) order of one heap holding every
    event. *)

type t

val create : unit -> t

val reset : t -> unit
(** Empty the queue and rewind the clock and the heap's insertion
    sequence to their {!create} state, keeping grown capacities. *)

val now : t -> int
(** The time of the last popped event; 0 after {!create} or {!reset}. *)

val is_empty : t -> bool

val add : t -> time:int -> int -> unit
(** Schedule a payload at [time].  Raises [Invalid_argument] when [time]
    is before {!now}. *)

val next_time : t -> int
(** The time of the event the next {!pop} returns; raises
    [Invalid_argument] when empty. *)

val pop : t -> int
(** Remove the first event in (time, seq) order, advance {!now} to its
    time and return its payload.  Raises [Invalid_argument] when
    empty. *)
