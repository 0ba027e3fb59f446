(** Execute one benchmark invocation under one collector.

    Builds the whole stack — machine, heap, engine, collector, workload —
    runs it to completion (or failure), and returns the measurement.  Runs
    are deterministic: equal configs (including seed) yield equal
    measurements. *)

type tape_mode =
  | Tape_off  (** decisions drawn live from the seeded PRNG (historical path) *)
  | Tape_replay of Gcr_workloads.Decision_source.image
      (** decisions replayed from a tape's image
          ({!Gcr_workloads.Tape_gen.image}); bit-identical to the live run
          under every collector, including past the end of the tape's
          stream (PRNG fallback) *)

type config = {
  spec : Gcr_workloads.Spec.t;
  gc : Gcr_gcs.Registry.kind;
  heap_words : int;
      (** ignored for Epsilon, which gets the machine's memory instead
          (matching the paper's use of Epsilon wherever it physically
          fits) *)
  machine : Gcr_mach.Machine.t;
  cost : Gcr_mach.Cost_model.t;
  seed : int;
  region_words : int;
  max_events : int option;
      (** engine event budget; [None] = a generous default scaled to the
          workload.  Runs that exceed it abort with a failure — the
          simulator's "this configuration thrashes beyond usefulness"
          verdict (used aggressively by min-heap probes) *)
  make_collector : (Gcr_gcs.Gc_types.ctx -> Gcr_gcs.Gc_types.t) option;
      (** override the collector constructor (ablations with custom
          collector configs); [gc] still labels the measurement and picks
          the Epsilon heap rule.  [None] = registry default *)
  tape : tape_mode;
      (** where workload decisions come from.  Replay refuses an image
          whose spec digest, seed, or thread count disagree with this
          config ([Invalid_argument]) *)
  controller : Gcr_policy.Controller.spec;
      (** the dynamic heap-sizing controller.  [Fixed] (the default)
          attaches nothing at all — runs are bit-identical to builds that
          predate controllers.  Non-fixed controllers observe at every
          pause_end and may grow/shrink the heap between the configured
          [heap_words] floor and the machine's memory *)
}

val default_region_words : int
(** 256 words (2 KiB): small enough that per-thread allocation buffers
    (one region each) stay a small fraction of even the smallest heaps. *)

type state
(** A per-worker pool of the expensive per-run structures (engine + obs
    spine, heap + object store).  The first {!execute} through a state
    builds them; every later one resets them in place — same results,
    bit for bit, without the per-cell allocation storm.  A state serves
    one run at a time. *)

val new_state : unit -> state
(** An empty pool; the first run through it populates it. *)

val state_heap : state -> Gcr_heap.Heap.t option
(** The pooled heap, if one has been built — post-run inspection for the
    reuse≡fresh differential suite ({!Gcr_heap.Heap.history_digest}
    comparison). *)

val default_config :
  spec:Gcr_workloads.Spec.t -> gc:Gcr_gcs.Registry.kind -> heap_words:int -> seed:int -> config
(** Default machine, cost model, and {!default_region_words} regions. *)

type probe = {
  probe_heap : Gcr_heap.Heap.t;
  probe_roots : (Gcr_heap.Obj_model.id -> unit) -> unit;
      (** the collector-facing root iterator (long-lived spine + every
          mutator's roots) *)
  probe_packets : unit -> int;
      (** total packets executed across all mutator threads — a
          collector-independent progress coordinate *)
}
(** A safepoint observation window handed to [on_pause] (below). *)

type session
(** A prepared run whose engine has not finished: the stack is built, the
    workload is started, and events are processed on demand.  Obtained
    from {!prepare}; advanced with {!step}; closed with {!finish}.  The
    multi-tenant memory market interleaves several sessions in epochs. *)

val prepare :
  ?state:state ->
  ?on_engine:(Gcr_engine.Engine.t -> unit) ->
  ?on_pause:(probe -> unit) ->
  ?arrivals_override:int array ->
  config ->
  session
(** Build the stack and start the workload without processing any events.
    [arrivals_override] replaces the PRNG-drawn request arrival schedule
    (latency-sensitive specs only) — the market's diurnal waves enter
    here, leaving {!Gcr_workloads.Spec} and its digest untouched.  Other
    optional arguments as in {!execute}. *)

val session_heap : session -> Gcr_heap.Heap.t

val session_obs : session -> Gcr_obs.Obs.t

val session_now : session -> int
(** The session's simulated clock (last processed event). *)

val step : session -> until:int -> bool
(** Advance until the next event lies strictly beyond [until].  [true]
    means the run is still in flight; [false] means it ended (finished,
    aborted, or already over) — {!finish} has the verdict. *)

val finish : session -> Measurement.t
(** Run any remaining events to completion and produce the measurement.
    [execute config] ≡ [finish (prepare config)], bit for bit. *)

val execute :
  ?state:state ->
  ?on_engine:(Gcr_engine.Engine.t -> unit) -> ?on_pause:(probe -> unit) -> config -> Measurement.t
(** [state], when given, recycles that pool's engine and heap instead of
    building fresh ones — the warm execution path.  Results are
    bit-identical with or without it ([test/test_warm.ml] enforces
    this), including after a run that aborted or raised: resets assume
    no clean end state.

    [on_engine] runs right after the engine (and its event spine) is
    created or reset, before any heap or collector state exists — the
    place to attach trace subscribers ({!Gcr_obs.Obs.attach_trace}) or
    keep the engine for post-run inspection.

    [on_pause] fires at every pause_begin event: the world is stopped and
    the collector's pause work has not started, so the probe sees the heap
    exactly as the mutators left it.  The differential live-set oracle
    ({!test_liveset_diff}) snapshots reachability here.  Probing does not
    perturb the measurement (observation is passive). *)

val execute_ideal : spec:Gcr_workloads.Spec.t -> machine:Gcr_mach.Machine.t -> seed:int -> Measurement.t
(** Ground truth for the validation study: Epsilon with all barrier costs
    zeroed on a memory-capacity heap — the closest measurable realisation
    of the paper's notional zero-cost GC. *)
