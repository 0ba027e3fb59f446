(** One crash-isolated, cache-aware campaign invocation — the unit every
    executor runs: fabric workers, the fabric coordinator's backstop
    (every cell of a campaign without workers) and the min-heap search.
    [Run.execute] is deterministic and shares no mutable state across
    runs, so a campaign's result is a pure function of its configs,
    whichever executor ran them.

    Crash isolation: an exception escaping one run (a buggy workload, a
    collector invariant failure) becomes a [Failed] measurement for that
    invocation only; the rest of the campaign is unaffected. *)

val on_execute : (Gcr_runtime.Run.config -> unit) ref
(** Test hook, called immediately before every {e fresh} [Run.execute]
    (cache hits do not fire it).  It runs in the process that executes
    the cell, so a forked fabric worker fires its own inherited copy.
    Default: no-op. *)

val failed_of_exn : Gcr_runtime.Run.config -> exn -> Gcr_runtime.Measurement.t
(** The [Failed] measurement an invocation gets when its run raises:
    the config's labels, the exception as the reason, every counter
    zero.  A caller that must run [Run.execute] itself (with a tracer
    attached, say) isolates a crash with it. *)

val execute :
  ?cache:Result_cache.t -> ?state:Gcr_runtime.Run.state ->
  Gcr_runtime.Run.config -> Gcr_runtime.Measurement.t
(** One crash-isolated, cache-aware invocation: cache hit → stored
    measurement; miss → [Run.execute] (exceptions become [Failed]) and
    the result is stored for next time.  [state], when given, recycles
    that pool's engine/heap on the miss path (the warm execution path;
    results are bit-identical either way). *)

val execute_cached :
  ?cache:Result_cache.t ->
  ?state:Gcr_runtime.Run.state ->
  Gcr_runtime.Run.config ->
  Gcr_runtime.Measurement.t * bool
(** [execute] plus whether the measurement was replayed from the cache —
    the figure the campaign summary's hit/miss accounting is built on. *)
