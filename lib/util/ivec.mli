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

val iter : (int -> unit) -> t -> unit

val fold : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc

val filter_in_place : (int -> bool) -> t -> unit
(** Keeps the elements that satisfy the predicate, in their order; the
    predicate sees every element once, front to back. *)
