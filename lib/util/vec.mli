(** Growable arrays (OCaml 5.1's stdlib predates [Dynarray]).

    Holds the collectors' waiter lists and allocator registry, the
    engine's thread table and legacy pause log, the evacuation queue,
    the intern table and table rows.  Amortised O(1) push, O(1) random
    access.  Int payloads on hot paths use {!Ivec} instead. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Bounds-checked. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

val clear : 'a t -> unit
(** Overwrites the freed slots with the first element, so the vector does
    not retain references to removed values.  Residual case: there is no
    universal dummy element, so a cleared vector keeps its slot-0
    reference alive until the next push. *)

val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list
