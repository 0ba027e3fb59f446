(** Fixed-size heap regions.

    The heap is a flat array of equally sized regions (G1/Shenandoah/ZGC
    style).  The stop-the-world collectors reuse the same substrate: their
    "spaces" are simply sets of regions tagged with a space label, which
    keeps one allocation and accounting path for all nine collectors. *)

type space =
  | Free  (** in the free pool *)
  | Eden  (** mutator allocation target *)
  | Survivor  (** young objects that survived at least one collection *)
  | Old  (** tenured / mature space *)

val space_equal : space -> space -> bool

type t = {
  index : int;
  mutable space : space;
  mutable used_words : int;  (** bump cursor, words allocated *)
  mutable live_words : int;  (** live words found by the last mark *)
  mutable objects : Gcr_util.Ivec.t;
      (** ids of objects whose storage is (or was, until evacuated) here,
          in allocation/arrival order *)
  mutable pinned : bool;  (** excluded from collection sets while set *)
}

val make : index:int -> t

val reset : t -> t
(** Return to the [Free] state with no objects (the vec is cleared in
    O(1), not reallocated). *)
