(** On-disk cache of run results: one append-only log per writing
    process.

    Entries live under a directory.  A process's first store creates
    [<dir>/<pid>-<stamp>.log] (exclusively, under a name no other writer
    holds) and every later store of that handle in that process appends
    one sealed record to it: the digest of the cache-key rendering, the
    body length, the digest of the body, then the body — the marshalled
    rendering and {!Gcr_runtime.Measurement.t}.  A forked child never
    appends to its parent's log; it opens its own.  A failed or short
    write ends the handle's storing in that process, so a torn record is
    always the last record of its log.

    The first lookup reads the record headers of every [*.log] in the
    directory into an index of where each key's records lie; the
    handle's own stores join that index.  A lookup reads one record and
    checks its body digest before unmarshalling, then the full key
    rendering (not just the digest), so a corrupted, truncated or
    colliding record is dropped from the index and reads as a miss — a
    bad record can cost a re-run, never a wrong measurement.  Files in
    the old one-file-per-entry format ([*.run]) are never read.
    Caching is opt-in: nothing is read or stored unless the caller
    creates a cache. *)

type t

val create : dir:string -> t
(** Creates [dir] (and missing parents) if needed; reads nothing in it.
    Raises [Sys_error] if the directory cannot be created. *)

val dir : t -> string

type key
(** A configuration's cache key: its {!Cache_key.render}ing and the
    digest of that rendering, computed once and used for both the lookup
    and the store that follows a miss. *)

val key : Gcr_runtime.Run.config -> key option
(** [None] for uncacheable configs (custom collector). *)

val find : t -> key -> Gcr_runtime.Measurement.t option
(** [None] for missing entries and for records that fail validation
    (which leave the index; the files are never rewritten). *)

val store : t -> key -> Gcr_runtime.Measurement.t -> unit
(** Appends one record.  IO errors are swallowed: a read-only cache
    degrades to a miss, never a crash. *)
