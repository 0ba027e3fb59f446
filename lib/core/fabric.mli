(** Multi-process campaign fabric: one coordinator deals groups to
    worker processes over checksummed frames (see
    {!Gcr_sched.Transport}) and reduces their result batches by plan
    index, so the report is bit-identical to a serial run at every
    worker and host count.

    One transport, one way in.  Every worker holds a connected stream
    socket and joins through the same handshake: its hello carries the
    protocol version, the {!Gcr_sched.Cache_key.version} and its
    "host/pid"; the coordinator checks both versions and answers with a
    welcome that also carries the worker id and the plan digest.  The
    fleet is either

    - {e forked}: the coordinator forks [workers] children, each holding
      one end of a Unix socketpair and sharing its result cache, or
    - {e listening}: with [listen], the coordinator accepts TCP workers
      started elsewhere via [gcr worker --connect] ({!worker_connect}).

    A group is either a list of cells sharing (spec, seed) or one whole
    min-heap search ({!Minheap.search}).  No tape travels between
    processes: every worker (and the coordinator's backstop) generates
    the replay image a group needs with [Tape_gen.image], a pure
    function of (spec, seed).  Workers run {e warm}: each recycles one
    {!Gcr_runtime.Run.state} (engine + heap) across every cell and
    probe it executes.

    Scheduling is greedy LPT list scheduling, one group per worker (see
    {!Coordinator.deal}).  Reduction is by plan index, and a worker's
    result is taken only for a pending cell of the group it holds, so
    neither the dealing order nor worker death can change a byte of the
    report — only who computes it.

    Fault model: a worker is dead on EOF, on a corrupt frame or
    payload, on an unknown frame tag, on a result for a cell it does not
    hold, on a failed send, or after [GCR_FABRIC_TIMEOUT_S] (default
    600 s) of silence while holding a group, counted from the send of
    that group or from its last frame, whichever is later; a worker
    heartbeats before each cell and each probe.  The unfinished cells
    of that group are requeued for the survivors; with
    no workers left, the coordinator runs the remainder itself (the
    {e backstop}).  The report is unchanged either way.  {!Coordinator}
    makes each of these decisions.

    A session may have no workers at all: then every {!dispatch} is all
    backstop, and the coordinator runs each wave's groups costliest
    first.  This is how an in-process campaign runs. *)

(** The unit of dealing: a sibling batch of cells, which share (spec,
    seed) and hence one tape, or one whole min-heap search.  [cost] is
    the planner's estimate, the size-aware scheduler's sort key: any
    non-negative number, only relative order matters. *)
type group =
  | Cells of {
      spec : Gcr_workloads.Spec.t;
      seed : int;
      tapes : bool;  (** attach the group's replay tape to every cell *)
      cost : float;
      cells : (int * Gcr_runtime.Run.config) list;
          (** (result slot, config); configs must carry [Tape_off] — the
              worker attaches the group tape itself — and no
              [make_collector] closure (closures cannot cross processes) *)
    }
  | Search of { slot : int; spec : Gcr_workloads.Spec.t; config : Minheap.config; cost : float }
      (** {!Minheap.search} on the executor's warm state and result
          cache; [slot] receives its result. *)

val protocol_version : int
(** Carried by hello and welcome; a group frame is the marshalled {!group}. *)

type stats = {
  cells : int;  (** total result slots *)
  cache_hits : int;  (** cells replayed from the result store *)
  per_worker : int array;  (** cells completed by each worker, this wave *)
  reassigned_cells : int;  (** cells requeued after a worker death *)
  parent_cells : int;  (** cells the coordinator ran itself (the backstop) *)
  worker_profile : Gcr_runtime.Profile.snapshot;
      (** summed setup/tape/simulate self-time the worker processes
          reported in their result batches.  The coordinator's own
          execution (the backstop) accrues to this process's
          {!Gcr_runtime.Profile} counters instead. *)
}

type worker_row = {
  row_id : int;
  row_host : string;  (** the "host/pid" of the worker's hello *)
  row_cells : int;  (** session-cumulative; a search counts as one *)
  row_alive : bool;
}

(** {2 Coordinator core}

    Every dealing and fault decision of one wave, with no I/O: workers
    are ids [0 .. n-1], cells are plan indices, groups are positions in
    the list given to [create], and results are opaque.  {!dispatch}
    keeps [select], framing, [Marshal], the timeout clock and the
    backstop's runs. *)

module Coordinator : sig
  type t

  type loss =
    | Hangup  (** EOF, or a failed read *)
    | Corrupt_frame of string
    | Bad_payload of string  (** a checksummed batch that does not unmarshal *)
    | Unknown_tag of char
    | Send_failed
    | Silent of float  (** seconds without a frame, past the timeout *)

  type 'r input =
    | Batch of int * (int * 'r) list  (** a worker's (cell, result) batch *)
    | Lost of int * loss

  type 'r action =
    | Take of { worker : int; cell : int; result : 'r }  (** reduce into the cell *)
    | Drop of { worker : int; log : string list }  (** log the lines, close the worker *)

  type deal =
    | Send of { worker : int; group : int; cells : int list }
    | Wait  (** a live worker holds a group: wait for its input *)
    | Backstop of (int * int list) list
        (** the fleet is done: run these groups' unreduced cells inline, in
            this order (none when every cell is reduced) *)

  val create : alive:bool array -> (float * int list) list -> t
  (** A wave over workers whose liveness is [alive], and groups given as
      (cost, cells), each cell in one group. *)

  val step : t -> 'r input -> 'r action list
  (** A batch is taken while each entry is an unreduced cell of the
      worker's group; the first other index drops the worker and the rest
      of the batch.  A drop requeues exactly the unreduced cells of the
      worker's group.  Input from a dead worker, and silence from an idle
      one, is ignored. *)

  val deal : t -> deal
  (** [Send] while an idle live worker (lowest id) and a ready group
      (costliest) exist, else [Wait] while a live worker holds a group,
      else [Backstop]. *)

  val requeued : t -> int
  (** Cells requeued by drops so far. *)
end

(** {2 Sessions}

    A session owns the worker fleet, possibly empty, and one warm
    {!Gcr_runtime.Run.state} for its backstop; {!dispatch} runs one wave
    of groups through it.  The harness runs every campaign through a
    single session: one wave of cold min-heap searches, then the grid,
    so searches ride the same transport, result cache and warm worker
    state as the grid. *)

type session

val timeout_of_env : unit -> (float, string) result
(** The dead-worker timeout in seconds: [GCR_FABRIC_TIMEOUT_S] when it is
    set and not empty, 600 otherwise; 0 disables it.  [Error] gives a
    one-line reason naming the variable and its value when that value is
    not a finite number of seconds [>= 0]. *)

val start :
  workers:int ->
  ?cache:Gcr_sched.Result_cache.t ->
  ?log:(string -> unit) ->
  ?listen:string * int ->
  ?connect_timeout:float ->
  ?on_listen:(int -> unit) ->
  ?plan_digest:string ->
  unit ->
  session
(** Fork or accept the fleet, and admit each worker through the
    handshake.  [workers = 0] forks nothing and listens nowhere: the
    coordinator runs every group itself.  Without [listen] the
    coordinator forks [workers] children, one Unix socketpair each;
    each child closes the coordinator's ends of its own and its earlier
    siblings' pairs, so the coordinator's death is an EOF to every
    worker.  With [listen:(host, port)] nothing is forked: the
    coordinator binds, announces the actual port via [on_listen] (after
    [listen(2)], before waiting — port [0] requests an ephemeral port),
    and accepts connections until [workers] have joined or
    [connect_timeout] seconds (default 30) pass.  Either way every
    pending worker's hello must arrive by that deadline: one that says
    nothing is rejected then, and holds up no other.  A mismatched
    worker is answered with our versions and then dropped, so it can
    report the precise incompatibility before exiting.  A short fleet —
    even an empty one — is not an error: the backstop guarantees
    completion.  With [cache], forked workers and the backstop replay and
    store results through it, and the welcome tells socket workers to use
    their own cache, if they have one.  Raises [Invalid_argument] on
    [workers < 0], on [listen] with [workers = 0], or on a malformed
    [GCR_FABRIC_TIMEOUT_S] (see {!timeout_of_env}), before it forks or
    binds anything. *)

val dispatch :
  session ->
  n_cells:int ->
  group list ->
  Gcr_runtime.Measurement.t array * stats
(** Execute one wave: deal its groups to the live workers, then run
    what is left (everything, with no live worker) as the backstop,
    logging one line per group.  Returns measurements indexed by result
    slot (every slot in \[0, n_cells) must be covered by exactly one cell
    or search) plus the wave's stats.  Raises [Invalid_argument] on malformed groups
    (out-of-range or duplicate indices, collector closures, non-[Tape_off]
    cell configs) and on a session already shut down. *)

val shutdown : session -> unit
(** Send quit, close endpoints, reap forked children, restore the
    SIGPIPE disposition.  Idempotent. *)

val worker_rows : session -> worker_row list
(** Per-worker session-cumulative accounting for the campaign summary. *)

val worker_deaths : session -> int
(** Workers declared dead over the session's lifetime. *)

(** {2 Worker side} *)

val worker_connect :
  host:string ->
  port:int ->
  ?cache:Gcr_sched.Result_cache.t ->
  ?retry_for:float ->
  unit ->
  (unit, string) result
(** The [gcr worker --connect] entry point: connect (retrying refused
    connections for [retry_for] seconds, default 30 — workers are often
    started before the coordinator), then join exactly as a forked worker
    does: handshake (waiting at most [retry_for] seconds for the
    welcome), then serve groups until the coordinator's quit frame.  With [cache], results are replayed from
    and stored in it whenever the coordinator caches results too.
    [Ok ()] means the coordinator sent quit.  Every other end is an
    [Error] naming it: a failed connect or handshake (a protocol version
    mismatch, no welcome in time), or a session that ended without quit
    (EOF, an unknown frame tag, a corrupt stream, a broken connection).
    [gcr worker] prints it and exits 3. *)
