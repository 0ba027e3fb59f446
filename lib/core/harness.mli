(** The experiment harness: campaigns over benchmark × collector × heap
    grids, following the paper's execution methodology (§IV-A): heap sizes
    as multiples of the per-benchmark minimum heap, several invocations
    per configuration with distinct seeds, invocations of different
    configurations interleaved, Epsilon included wherever it fits in
    memory.

    The harness is split into a pure {!Planner} (grid → ordered cell
    specs) and one executor, a {!Fabric} session.  With no
    workers the session's coordinator runs every group itself; with
    workers it deals them out.  Either way it fills the plan's result
    slots and the reduction reads them back in submission order, so the
    recorded campaign is bit-identical at any worker count
    ([test/test_fabric.ml] enforces this).

    A single run is a campaign cell: {!minheap_config} is the only
    min-heap search and {!cell_config} the only way a (benchmark,
    collector, heap factor, invocation) becomes a run, alone or in a
    campaign. *)

type config = {
  invocations : int;
  base_seed : int;
  scale : float;
      (** scales run length {e and} machine memory together, so Epsilon
          feasibility (and thus the LBO collector set) is preserved *)
  machine : Gcr_mach.Machine.t;
  cost : Gcr_mach.Cost_model.t;
  region_words : int;
  heap_factors : float list;
  log_progress : bool;  (** one stderr line per configuration *)
  workers : int option;
      (** The fabric session's worker count: [Some n] forks [n] worker
          processes (or accepts [n] socket workers, see [listen]) — each
          owns a whole OCaml runtime, so throughput scales with cores.
          [None] (default) is a session with no workers: its coordinator
          runs every group in this process, costliest first, on one warm
          run state.  Campaign results are bit-identical either way. *)
  cache_dir : string option;
      (** when set, completed runs — min-heap probes and grid cells — are
          stored in (and replayed from) one on-disk
          {!Gcr_sched.Result_cache} keyed by the full run config, by every
          executor, fabric workers included.  Tapes are never stored: each
          executor generates the images it replays.  [None] disables
          result caching: nothing persists between processes *)
  tapes : bool;
      (** record-once / replay-many workload tapes: each (benchmark, seed)
          cell group generates its decision stream once and every cell in
          the group replays it.  Campaign results are bit-identical with
          tapes on or off; tests use [false] as the replay oracle *)
  controllers : Gcr_policy.Controller.spec list;
      (** heap-sizing controllers, multiplying each non-Epsilon
          (collector, factor) cell as the innermost grid axis.  The
          default [[Fixed]] reproduces the historical grid — same cells,
          same keys, same goldens *)
  listen : (string * int) option;
      (** with [workers = Some n]: accept [n] TCP socket workers at this
          (host, port) instead of forking — [gcr campaign --listen].
          Port 0 binds an ephemeral port, announced via [on_listen].
          Campaign results remain bit-identical to every other executor:
          the socket fabric is just a transport. *)
  connect_timeout : float;
      (** seconds to wait for socket workers before proceeding with
          however many connected (default 30; the coordinator's inline
          backstop covers even an empty fleet) *)
  on_listen : (int -> unit) option;
      (** called once with the actual bound port when the coordinator
          starts accepting — tests and benches fork their workers from
          here, race-free *)
}

val paper_heap_factors : float list
(** 1.4, 1.9, 2.4, 3.0, 3.7, 4.4, 5.2, 6.0 — the paper's eight sizes. *)

val default_heap_factors : float list
(** The default grid: twelve sizes, a superset of {!paper_heap_factors}
    densified below 2× (where LBO curves bend hardest) and between the
    paper's steps. *)

val default_gcs : Gcr_gcs.Registry.kind list
(** The default campaign grid: the whole collector frontier
    ({!Gcr_gcs.Registry.frontier} — the paper's six plus the experimental
    extensions). *)

val default_config : unit -> config
(** 8 invocations at scale 1.0 over {!default_heap_factors}, no
    workers (every cell runs in this process), tapes on, no result cache.  Reads no environment
    variable: the CLI maps its flags (and [GCR_WORKERS], [GCR_CACHE_DIR])
    onto these fields. *)

val scaled_machine : config -> Gcr_mach.Machine.t
(** [config.machine] with its memory scaled by [config.scale], the machine
    every search and cell runs on.  A campaign keeps the caller's config,
    deduplicated ({!config_of}), so derive from that through this
    function only. *)

val minheap_config : config -> Minheap.config
(** G1 on {!scaled_machine} at [base_seed].  The frozen
    [perfbench/main.ml] copy must produce the same memo key. *)

val cell_config :
  ?controller:Gcr_policy.Controller.spec -> config -> minheap:int -> Gcr_workloads.Spec.t ->
  gc:Gcr_gcs.Registry.kind -> factor:float -> invocation:int -> Gcr_runtime.Run.config
(** {!Planner.cell_config} on {!scaled_machine} at {!Planner.seed_of}
    [base_seed] [invocation] ([spec] scaled; [minheap] from
    {!minheap_config}; [controller] defaults to [Fixed]).  Raises
    {!Planner.Unrunnable} on a heap below two regions. *)

type exec_summary = {
  cells : int;  (** grid cells executed (invocations included) *)
  cache_hits : int;  (** cells replayed from the result cache *)
  cache_misses : int;  (** cells actually executed *)
  worker_processes : int;
      (** workers the session got: forked, or socket workers that joined
          (0 when none did, or the session asked for none) *)
  per_worker : int array;  (** cells completed per fabric worker *)
  reassigned_cells : int;  (** cells requeued after a worker crash *)
  parent_cells : int;
      (** cells the coordinator ran itself (its backstop): every cell
          when the session has no workers *)
  elapsed_s : float;  (** wall-clock campaign time, minheaps included *)
  plan_s : float;
      (** wall time before execution: minheap probes + grid planning *)
  execute_s : float;  (** wall time filling the plan's result slots *)
  reduce_s : float;  (** wall time reducing slots into the report *)
  setup_s : float;
      (** engine/heap construction (or warm reset) self-time within the
          execute phase, summed across this process and fabric workers *)
  tape_s : float;
      (** tape generate/decode self-time within the execute phase *)
  simulate_s : float;  (** in-simulation self-time within the execute phase *)
  cells_per_sec : float;  (** cells / [execute_s] — the execution rate *)
  limit_changes : int;
      (** heap-limit moves controllers made, summed over all cells (0 for
          an all-Fixed campaign) *)
  peak_footprint_words : int;  (** highest heap limit any cell reached *)
  mean_footprint_words : float;
      (** per-cell mean heap limit (footprint integral / wall time),
          averaged over cells *)
  worker_deaths : int;  (** workers declared dead during the session *)
  stolen_groups : int;
      (** always 0: a fabric worker holds one group at a time, so there
          is nothing to steal.  The field stays only because the frozen
          [perfbench/main.ml] reads it for its [fabric.stolen_groups]
          metric; it goes in the next change to the benchmark. *)
  worker_rows : Fabric.worker_row list;
      (** per-worker accounting (host, transport, session-cumulative
          cells); empty when the session has no workers *)
}
(** How a campaign was executed — the accounting behind the CLI summary
    line and [gcr campaign --profile].  Pure reporting: no field feeds
    back into results.  Phase wall times satisfy
    [elapsed_s = plan_s + execute_s + reduce_s]; the [*_s] self-times are
    summed across workers, so they can legitimately exceed [execute_s]
    under parallel execution. *)

type campaign

val first_of : ('a -> 'k) -> 'a list -> 'a list
(** [first_of key xs] keeps the first element of [xs] with each [key],
    in order: the rule by which a grid value named twice counts once. *)

val run_campaign :
  config ->
  benchmarks:Gcr_workloads.Spec.t list ->
  gcs:Gcr_gcs.Registry.kind list ->
  campaign
(** Runs everything: each production collector at every heap factor, plus
    Epsilon once per benchmark (its heap is the machine memory).  A
    benchmark (by name), collector, heap factor (to the permille that
    keys a configuration) or controller (by name) given twice counts
    once, at its first place; the campaign keeps the deduplicated lists
    and config.  Specs are scaled before running; min-heaps are measured
    per benchmark, through the in-process memo and the [cache_dir]
    store.  One {!Fabric} session carries the searches and then the
    grid: every cold search is one group of one wave, whole, and memo
    hits are taken as they are.  Raises [Invalid_argument] on [listen]
    without workers, and {!Planner.Unrunnable} on a search that cannot
    complete or a grid cell below two regions (the session is shut down
    first). *)

(** {1 Access} *)

val config_of : campaign -> config

val benchmarks : campaign -> Gcr_workloads.Spec.t list
(** The scaled specs actually run. *)

val gcs : campaign -> Gcr_gcs.Registry.kind list

val minheap_words : campaign -> bench:string -> int

val summary : campaign -> exec_summary

val busy_share : exec_summary -> float
(** Attributed self-time ([setup_s + tape_s + simulate_s]) over the
    executors' capacity, [max 1 worker_processes × execute_s]; 0 when
    the execute phase took no time. *)

val unattributed_s : exec_summary -> float
(** Executor time no self-time counter holds — scheduling, result-cache
    lookups and stores, marshalling, idle waits:
    [max 1 worker_processes × execute_s − (setup_s + tape_s + simulate_s)].
    Never negative: each executor's self-time lies inside the execute
    window, and no more than that many executors run at once (the
    fabric's parent runs cells only once every worker is gone). *)

val all_measurements : campaign -> Gcr_runtime.Measurement.t list
(** Every invocation in the campaign, in a deterministic (key-sorted)
    order — the failure audit the CLI exit code is based on. *)

val runs :
  ?controller:Gcr_policy.Controller.spec ->
  campaign -> bench:string -> gc:Gcr_gcs.Registry.kind -> factor:float ->
  Gcr_runtime.Measurement.t list
(** Invocations for one configuration (Epsilon: any factor returns its
    single configuration).  [controller] defaults to [Fixed], so existing
    reports and LBO readers see exactly the historical cells; pass a
    non-fixed spec to read that controller's column. *)

(** {1 LBO over a campaign} *)

val observations :
  campaign -> Metrics.t -> bench:string -> factor:float -> Lbo.observation list
(** One observation per collector that completed all invocations at this
    configuration, Epsilon included when feasible — the set G of the
    methodology. *)

val ideal : campaign -> Metrics.t -> bench:string -> factor:float -> float option

val lbo_value :
  campaign -> Metrics.t -> bench:string -> gc:Gcr_gcs.Registry.kind -> factor:float ->
  float option
(** [None] where the collector cannot run the configuration (the paper's
    blank cells). *)

val lbo_geomean :
  campaign -> Metrics.t -> benches:string list -> gc:Gcr_gcs.Registry.kind ->
  factor:float -> float option
(** Geometric mean across benchmarks; [None] if the collector misses any
    of them (matching the paper's blank summary cells) or if [benches]
    is empty. *)
