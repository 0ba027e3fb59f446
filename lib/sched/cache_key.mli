(** Content hashing of run configurations for the result cache.

    A key must change whenever anything that can change the measurement
    changes: every spec field, the collector, the heap size, every machine
    and cost-model field, the seed, the region size, and the event budget.
    Workload scale needs no separate field — scaling rewrites
    [packets_per_thread] and the machine memory, both of which are keyed.

    Configs carrying a custom [make_collector] closure have no canonical
    content and are never keyed (they bypass the cache entirely). *)

val version : string
(** The key-format version folded into every rendering.  The fabric's
    socket handshake carries it: a worker whose build renders keys
    differently must not share a result store with the coordinator. *)

val render_cost : Gcr_mach.Cost_model.t -> string
(** Every cost-model field, in declaration order — the cost part of
    {!render}, also used to key minimum-heap search results. *)

val render : Gcr_runtime.Run.config -> string option
(** The canonical single-line rendering that is hashed.  Exposed so tests
    (and cache-entry validation) can compare the full content, not just
    the digest.  [None] iff the config has a [make_collector] override. *)

val of_config : Gcr_runtime.Run.config -> string option
(** Hex digest of {!render}; stable across processes and OCaml versions
    (the rendering uses no [Hashtbl.hash]).  [None] iff {!render} is. *)
