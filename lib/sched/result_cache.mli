(** On-disk cache of run results, one file per configuration.

    Entries live under a directory: [<dir>/<digest>.run] holds the cache-key
    rendering plus the marshalled {!Gcr_runtime.Measurement.t}.  Lookups
    verify a format magic {e and} the full rendering (not just the digest),
    so corrupted, truncated, or colliding entries are discarded — a bad
    cache file can cost a re-run, never a wrong measurement.  Caching is
    opt-in: nothing is read or stored unless the caller creates a cache.

    Writes go through a per-process temp file and an atomic
    [Sys.rename], so concurrent writers (fabric workers, or several
    campaigns sharing a cache directory) cannot expose half-written
    entries. *)

type t

val create : dir:string -> t
(** Creates [dir] (and missing parents) if needed.  Raises [Sys_error]
    if the directory cannot be created. *)

val dir : t -> string

val find : t -> Gcr_runtime.Run.config -> Gcr_runtime.Measurement.t option
(** [None] for uncacheable configs (custom collector), missing entries,
    and entries that fail validation (which are deleted). *)

val store : t -> Gcr_runtime.Run.config -> Gcr_runtime.Measurement.t -> unit
(** No-op for uncacheable configs.  IO errors are swallowed: a read-only
    cache degrades to a miss, never a crash. *)
