(** Synthesising workload tapes without running the simulator.

    The decision stream is a pure function of (spec, seed, thread count),
    so a tape needs no run: this module, the only producer of tapes,
    replicates [Run.execute]'s PRNG split order and draws every stream
    eagerly.  Every executor calls {!image} once per (benchmark, seed)
    cell group and replays it in every cell; [gcr tape record] writes
    {!generate}'s tape to a file. *)

val stream_length : Spec.t -> int
(** Upper bound on one thread's retry-free draw count; the replay cursor's
    PRNG fallback covers anything beyond it. *)

val generate : spec:Spec.t -> seed:int -> Gcr_tape.Tape.t

val image : spec:Spec.t -> seed:int -> Decision_source.image
(** [image_of_tape ∘ generate]. *)
