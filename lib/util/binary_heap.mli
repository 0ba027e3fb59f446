(** Minimum binary heap of [int] payloads keyed by integer priority,
    stored as parallel priority/sequence/value arrays (structure of
    arrays).

    The engine's event queue orders pending completions by simulated cycle
    count; ties are broken by insertion order so the simulation is
    deterministic.  Every operation is integer stores only: nothing
    allocates beyond amortised array growth, and nothing goes through the
    write barrier. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> priority:int -> int -> unit

val min_priority : t -> int
(** Smallest priority without removing it; raises [Invalid_argument] when
    empty. *)

val pop_min_value : t -> int
(** Removes the smallest-priority entry (FIFO among equal priorities) and
    returns its value; its priority travels out of band via
    {!popped_priority}.  Raises [Invalid_argument] when empty. *)

val popped_priority : t -> int
(** Priority of the entry most recently removed by {!pop_min_value} — a
    field read, not a heap peek.  Unspecified (0) before the first pop. *)

val clear : t -> unit
(** Empties the heap.  The insertion-sequence counter is preserved, so
    FIFO ordering holds across a clear. *)

val reset : t -> unit
(** {!clear} plus a rewind of the insertion-sequence counter and the
    popped-priority slot: a reused heap is indistinguishable from a
    fresh one to any caller (same tie-break sequence numbers), while
    keeping its array capacity — the warm-path reuse contract. *)
