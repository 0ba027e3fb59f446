(** Content-addressed tape store: [GCRTAPE1] workload tapes in one
    directory, each addressed by a digest of its {e recipe} (the spec
    digest, the seed and the thread count), so a reader can look a tape
    up before anyone has generated it.

    No executor calls this module.  Every executor generates the replay
    image it needs with [Tape_gen.image] — the image is a pure function
    of (spec, seed), and generating it costs less than serialising,
    writing, reading and parsing it.  The module stays for the
    repository benchmark's traced walk, which times a publish and a
    fetch per tape. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) if needed; raises [Sys_error] if the path
    exists and is not a directory. *)

val store_tape : t -> Gcr_tape.Tape.t -> unit
(** Atomically publish a tape under its recipe address (temp file named
    by pid, then rename).  IO errors are swallowed. *)

val find_tape_bytes :
  t -> spec_digest:string -> seed:int -> threads:int -> string option
(** The [GCRTAPE1] bytes stored for the recipe, verified on read: the
    bytes must pass their own checksum ([Tape.of_string]) and their
    header must name the requested recipe.  Invalid artifacts are
    deleted and read as [None], never as a wrong decision stream. *)
