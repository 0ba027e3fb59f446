(** The simulation event spine: one typed, allocation-conscious stream that
    every layer (engine, collectors, heap, workloads) emits into, and from
    which every measurement is derived.

    Events are encoded as five ints — (time, code, a, b, c); see {!Event}
    for the taxonomy and packing.  Strings never travel in events: they are
    interned once ({!intern}) and referenced by id.  Each event is folded
    into the always-on {!Counters} (cycle attribution, pause log, latency
    histograms) and fanned out to any attached subscribers.  With no
    subscriber attached, emission allocates nothing; attaching a full trace
    ({!attach_trace}) buffers the raw stream for export or replay. *)

type pause = { start : int; duration : int; reason : string }

module Counters : sig
  (** State of the fold over the event stream.  Every field is a pure
      function of the events applied so far; {!Trace.replay} reproduces it
      from a recorded trace. *)
  type t

  val create : unit -> t

  val apply : t -> time:int -> code:int -> a:int -> b:int -> c:int -> unit
  (** The fold step.  [Step_complete] is the hot arm: four array updates,
      no allocation. *)

  val wall_stw : t -> now:int -> int
  (** Wall cycles inside pauses, counting an open pause up to [now]. *)

  val footprint_region_cycles : t -> now:int -> int
  (** Time-weighted integral of the heap limit (region·cycles), accrued
      over [heap-init] and [limit-change] events and closed at [now] —
      the memory·time cost heap-sizing controllers minimise. *)

  val reset : t -> unit
  (** Rewind to the post-{!create} state, keeping grown array capacities.
      The histograms are replaced with fresh ones rather than cleared:
      measurements capture them by reference, so in-place clearing would
      corrupt the previous run's report.  Note the thread arrays keep
      their (zero-filled) capacity, so {!fingerprint} — which flattens
      whole arrays — may differ from a fresh spine in trailing zeros;
      differential suites over warm state compare measurements, not
      fingerprints. *)

  val fingerprint : t -> now:int -> int list
  (** Flattened scalar view for differential tests. *)
end

type subscriber = {
  sub_name : string;
  on_event : time:int -> code:int -> a:int -> b:int -> c:int -> unit;
}

module Trace : sig
  (** Full-trace sink: a flat int buffer, five slots per event. *)
  type t

  val create : ?capacity_events:int -> unit -> t

  val length : t -> int
  (** Number of recorded events. *)

  val append : t -> time:int -> code:int -> a:int -> b:int -> c:int -> unit

  val iter :
    t -> (time:int -> code:int -> a:int -> b:int -> c:int -> unit) -> unit

  val replay : t -> Counters.t
  (** Fold the recorded stream into a fresh [Counters.t]. *)
end

type t

val create : unit -> t

val counters : t -> Counters.t

val reset : t -> unit
(** Rewind the spine for the next run of a warm worker: {!Counters.reset},
    a cleared intern table, and an emptied subscriber list (a previous
    run's pause probes must not fire into the next run).  The clock stays
    wired — the owning engine resets its own clock. *)

val set_clock : t -> (unit -> int) -> unit
(** Install the simulated-time source (the engine does this at creation);
    emitters that are not driven by the engine read it via {!now}. *)

val now : t -> int

val intern : t -> string -> int

val string_of_id : t -> int -> string
(** [string_of_id t (-1)] is [""]. *)

val subscribe : t -> subscriber -> unit

val attach_trace : ?capacity_events:int -> t -> Trace.t
(** Attach a full-trace subscriber and return its sink. *)

val tracing : t -> bool
(** At least one subscriber is attached. *)

(** {1 Typed emitters}

    All take the event time explicitly; the hot ones take only ints. *)

val step_complete :
  t -> time:int -> tid:int -> kind:int -> cycles:int -> in_pause:bool -> unit

val thread_spawn : t -> time:int -> tid:int -> kind:int -> name:string -> unit

val safepoint_request : t -> time:int -> reason_id:int -> unit

val pause_begin : t -> time:int -> reason_id:int -> unit

val pause_end : t -> time:int -> reason_id:int -> unit
(** Closes the pause opened by the last {!pause_begin}; the duration is
    derived from its start time. *)

val phase_begin :
  t -> time:int -> collector_id:int -> phase:Event.phase -> tid:int -> unit

val phase_end :
  t -> time:int -> collector_id:int -> phase:Event.phase -> tid:int -> unit

val stall_begin : t -> time:int -> tid:int -> wake:int -> unit

val stall_end : t -> time:int -> tid:int -> unit

val alloc_stall_begin : t -> time:int -> tid:int -> unit

val alloc_stall_end : t -> time:int -> tid:int -> waited:int -> unit

val pacing_stall : t -> time:int -> tid:int -> cycles:int -> unit

val degeneration : t -> time:int -> reason_id:int -> unit

val oom : t -> time:int -> reason_id:int -> unit

val heap_init : t -> time:int -> regions:int -> region_words:int -> unit

val region_transition :
  t -> time:int -> index:int -> from_space:int -> to_space:int -> unit

val request_start : t -> time:int -> index:int -> tid:int -> unit

val request_complete :
  t -> time:int -> index:int -> service:int -> metered:int -> unit

val limit_change :
  t -> time:int -> regions:int -> old_regions:int -> controller_id:int -> unit
(** A heap-sizing controller changed the region-array limit.  Also
    refreshes the heap-geometry counters ([heap_regions], peak, and the
    footprint integral). *)

(** {1 Derived views} *)

val wall_stw : t -> now:int -> int

val cycles_of_kind : t -> int -> int
(** Indexed by {!Event.mutator_kind} / {!Event.gc_worker_kind}. *)

val cycles_stw_of_kind : t -> int -> int

val cycles_of_thread : t -> int -> int

val pause_count : t -> int

val pause_histogram : t -> Gcr_util.Histogram.t
(** Duration histogram, recorded at pause close. *)

val iter_pauses :
  t -> (start:int -> duration:int -> reason:string -> unit) -> unit

val pauses : t -> pause list
(** Completed pauses, in order (an open pause at abort is not listed). *)

val latency_metered : t -> Gcr_util.Histogram.t

val latency_simple : t -> Gcr_util.Histogram.t

val limit_changes : t -> int
(** Number of [limit-change] events folded so far. *)

val heap_limit_regions : t -> int
(** The live heap limit, in regions (initialised by [heap-init]). *)

val heap_limit_peak_regions : t -> int

val heap_region_words : t -> int
(** Region size recorded by the last heap-init event; 0 before any. *)

val footprint_region_cycles : t -> now:int -> int
(** See {!Counters.footprint_region_cycles}. *)

val decode_event : t -> code:int -> a:int -> b:int -> c:int -> Event.t

val fingerprint : t -> now:int -> int list
