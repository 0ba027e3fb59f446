(** Growable vectors of [int], monomorphic so the hot paths store
    immediates.

    {!Vec} is polymorphic, so each of its stores goes through the write
    barrier and each removal overwrites the freed slots with a surviving
    element, so that they retain nothing.  Object ids, region indices,
    serials and string ids need neither: here [push] and [set] are plain
    stores, [pop] returns the int without an option, and {!clear} is
    O(1).  Iteration and push order are the same as {!Vec}'s. *)

type t

val create : unit -> t

val make : capacity:int -> t
(** Empty vector with [capacity] slots allocated up front. *)

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int
(** Bounds-checked: raises [Invalid_argument] outside [0, length). *)

val set : t -> int -> int -> unit
(** Bounds-checked, as {!get}. *)

val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the last element; raises [Invalid_argument] when
    empty.  Allocation-free. *)

val clear : t -> unit
(** O(1): resets the length, keeping the capacity. *)

(** {1 Bulk writes}

    A kernel that pushes or pops many elements in one loop keeps the
    length in a local and writes through the backing array, then
    publishes the new length once. *)

val reserve : t -> int -> int array
(** [reserve t n] grows the capacity, if needed, so that [n] more
    elements fit past the length, and returns the backing array itself,
    not a copy.  Its slots below [length t] are the elements; the slots
    from [length t] up to its own length are spare and may be written,
    then published with {!set_length}.  The array stays the vector's
    storage until the next call that grows it ([push] on a full vector,
    or [reserve]).  [reserve t 0] returns the array unchanged.  Raises
    [Invalid_argument] when [n] is negative. *)

val set_length : t -> int -> unit
(** [set_length t n] makes the first [n] slots of the backing array the
    elements: below the old length it drops the tail, as that many pops
    would; above it, it publishes slots written through {!reserve}'s
    array.  Raises [Invalid_argument] outside [0, capacity]. *)

val iter : (int -> unit) -> t -> unit

val fold : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc

val filter_in_place : (int -> bool) -> t -> unit
(** Keeps the elements that satisfy the predicate, in their order; the
    predicate sees every element once, front to back. *)
