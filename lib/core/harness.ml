module Machine = Gcr_mach.Machine
module Cost_model = Gcr_mach.Cost_model
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Stats = Gcr_util.Stats
module Result_cache = Gcr_sched.Result_cache
module Controller = Gcr_policy.Controller

type config = {
  invocations : int;
  base_seed : int;
  scale : float;
  machine : Machine.t;
  cost : Cost_model.t;
  region_words : int;
  heap_factors : float list;
  log_progress : bool;
  workers : int option;
      (** the fabric session's worker count; [None]: a session with no
          workers, whose coordinator runs every group in this process.
          Either way the recorded campaign is bit-identical. *)
  cache_dir : string option;
  tapes : bool;
      (** replay each (benchmark, seed) cell group from one generated
          workload tape instead of re-deriving the decision stream from
          the PRNG in every cell; results are bit-identical either way *)
  controllers : Controller.spec list;
      (** heap-sizing controllers, the innermost grid axis.  The default
          [[Fixed]] reproduces the historical grid exactly *)
  listen : (string * int) option;
      (** with [workers = Some n]: accept [n] TCP socket workers here
          instead of forking ([gcr campaign --listen]); port 0 binds an
          ephemeral port announced via [on_listen] *)
  connect_timeout : float;
      (** seconds to wait for socket workers before proceeding short *)
  on_listen : (int -> unit) option;
      (** called with the actual bound port once accepting (tests and
          benches fork their workers from here, race-free) *)
}

let paper_heap_factors = [ 1.4; 1.9; 2.4; 3.0; 3.7; 4.4; 5.2; 6.0 ]

(* The default grid is denser than the paper's eight sizes: extra points
   below 2× (where LBO curves bend hardest) and between the paper's
   steps.  A superset of [paper_heap_factors], so paper-grid cells can
   be read straight out of a default campaign. *)
let default_heap_factors =
  [ 1.2; 1.4; 1.7; 1.9; 2.4; 2.7; 3.0; 3.4; 3.7; 4.4; 5.2; 6.0 ]

(* The default campaign grid is the full collector frontier: the paper's
   six plus the experimental extensions (GenShen, LXR, Serial+pretenure)
   that the LBO-tightening study measures. *)
let default_gcs = Registry.frontier

let default_config () =
  {
    invocations = 8;
    base_seed = 1;
    scale = 1.0;
    machine = Machine.default;
    cost = Cost_model.default;
    region_words = Run.default_region_words;
    heap_factors = default_heap_factors;
    log_progress = true;
    workers = None;
    cache_dir = None;
    tapes = true;
    controllers = [ Controller.fixed ];
    listen = None;
    connect_timeout = 30.0;
    on_listen = None;
  }

type exec_summary = {
  cells : int;
  cache_hits : int;
  cache_misses : int;
  worker_processes : int;  (** workers the session got: forked, or joined *)
  per_worker : int array;
  reassigned_cells : int;
  parent_cells : int;
  elapsed_s : float;
  plan_s : float;
  execute_s : float;
  reduce_s : float;
  setup_s : float;
  tape_s : float;
  simulate_s : float;
  cells_per_sec : float;
  limit_changes : int;  (** controller decisions applied, summed over cells *)
  peak_footprint_words : int;  (** highest heap limit any cell reached *)
  mean_footprint_words : float;  (** per-cell mean heap limit, averaged *)
  worker_deaths : int;
  stolen_groups : int;
  worker_rows : Fabric.worker_row list;  (** per-worker accounting (fabric) *)
}

(* Configurations are keyed by (benchmark, collector, factor in permille,
   controller name); Epsilon is heap-independent and stored under factor 0
   with the fixed controller. *)
type key = string * string * int * string

type campaign = {
  config : config;
  specs : Spec.t list;
  gc_kinds : Registry.kind list;
  minheaps : (string, int) Hashtbl.t;
  cells : (key, Measurement.t list ref) Hashtbl.t;
  summary : exec_summary;
}

let permille factor = int_of_float (Float.round (factor *. 1000.0))

let key_of ~bench ~gc ~factor ~controller : key =
  match gc with
  | Registry.Epsilon -> (bench, "Epsilon", 0, Controller.name Controller.fixed)
  | g -> (bench, Registry.name g, permille factor, Controller.name controller)

let scaled_machine config =
  {
    config.machine with
    Machine.memory_words =
      max 4096 (int_of_float (float_of_int config.machine.Machine.memory_words *. config.scale));
  }

let minheap_config config =
  {
    Minheap.machine = scaled_machine config;
    cost = config.cost;
    region_words = config.region_words;
    seed = config.base_seed;
    gc = Registry.G1;
    tapes = config.tapes;
  }

let cell_config ?(controller = Controller.fixed) config ~minheap spec ~gc ~factor ~invocation =
  Planner.cell_config ~machine:(scaled_machine config) ~cost:config.cost
    ~region_words:config.region_words ~minheap ~spec
    ~seed:(Planner.seed_of ~base_seed:config.base_seed ~invocation)
    ~gc ~factor ~controller

let config_of t = t.config

let benchmarks t = t.specs

let gcs t = t.gc_kinds

let summary t = t.summary

let attributed_s s = s.setup_s +. s.tape_s +. s.simulate_s

let capacity_s s = float_of_int (max 1 s.worker_processes) *. s.execute_s

let busy_share s = if capacity_s s > 0.0 then attributed_s s /. capacity_s s else 0.0

let unattributed_s s = capacity_s s -. attributed_s s

let minheap_words t ~bench =
  match Hashtbl.find_opt t.minheaps bench with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Harness.minheap_words: no benchmark %S" bench)

let all_measurements t =
  let keyed = Hashtbl.fold (fun key cell acc -> (key, List.rev !cell) :: acc) t.cells [] in
  let keyed = List.sort (fun (a, _) (b, _) -> compare a b) keyed in
  List.concat_map snd keyed

let runs ?(controller = Controller.fixed) t ~bench ~gc ~factor =
  match Hashtbl.find_opt t.cells (key_of ~bench ~gc ~factor ~controller) with
  | Some cell -> List.rev !cell
  | None -> []

(* One planner group as a fabric group: the cost estimate rides along so
   the size-aware scheduler can deal largest-first. *)
let fabric_group_of config (g : Planner.group) =
  Fabric.Cells
    {
      spec = g.Planner.spec;
      seed = g.Planner.seed;
      tapes = config.tapes;
      cost = Planner.group_cost g;
      cells =
        List.map (fun (c : Planner.cell) -> (c.Planner.index, c.Planner.config)) g.Planner.cells;
    }

(* The plan digest a socket worker receives in its welcome and prints,
   computed before any plan exists (minheap probes precede planning): a
   digest of the whole campaign request plus the cache-key format
   version.  No side compares it; it names the campaign in worker logs. *)
let campaign_digest config specs gcs =
  let b = Buffer.create 256 in
  Buffer.add_string b Gcr_sched.Cache_key.version;
  Printf.bprintf b "|inv=%d|seed=%d|scale=%g|region=%d" config.invocations
    config.base_seed config.scale config.region_words;
  List.iter (fun f -> Printf.bprintf b "|f=%g" f) config.heap_factors;
  List.iter (fun c -> Printf.bprintf b "|ctl=%s" (Controller.name c)) config.controllers;
  List.iter (fun (s : Spec.t) -> Printf.bprintf b "|spec=%s" (Spec.digest s)) specs;
  List.iter (fun g -> Printf.bprintf b "|gc=%s" (Registry.name g)) gcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The first occurrence of each [key] in [xs], in order. *)
let first_of key xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      let k = key x in
      let fresh = not (Hashtbl.mem seen k) in
      Hashtbl.replace seen k ();
      fresh)
    xs

let run_campaign config ~benchmarks ~gcs =
  let started = Unix.gettimeofday () in
  (* A grid value named twice is one configuration, run once: the cells
     of a configuration are its invocations, never a repeated value. *)
  let config =
    {
      config with
      heap_factors = first_of permille config.heap_factors;
      controllers = first_of Controller.name config.controllers;
    }
  in
  let benchmarks = first_of (fun (s : Spec.t) -> s.Spec.name) benchmarks in
  let gcs = first_of Fun.id gcs in
  (* one store for the whole campaign: min-heap probes and grid cells *)
  let cache = Option.map (fun dir -> Result_cache.create ~dir) config.cache_dir in
  let specs = List.map (fun s -> Spec.scale s config.scale) benchmarks in
  let minheap_config = minheap_config config in
  let minheaps = Hashtbl.create 32 in
  let log_minheap (spec : Spec.t) words =
    if config.log_progress then
      Printf.eprintf "[harness] minheap %-12s = %d words\n%!" spec.Spec.name words
  in
  let log =
    if config.log_progress then fun line -> Printf.eprintf "[fabric] %s\n%!" line
    else fun _ -> ()
  in
  (* One session carries the min-heap searches and then the grid.  With
     no workers its coordinator runs every group itself. *)
  let session =
    Fabric.start ~workers:(Option.value config.workers ~default:0) ?cache ~log
      ?listen:config.listen ~connect_timeout:config.connect_timeout
      ?on_listen:config.on_listen ~plan_digest:(campaign_digest config specs gcs) ()
  in
  let run () =
    (* Memo hits are taken as they are.  Every cold search is one group
       of one wave, dealt costliest first: whoever takes it, a worker or
       the backstop, runs the whole search on one tape and one warm
       state. *)
    let cold =
      List.sort compare
        (List.filter (fun spec -> Minheap.find_cached minheap_config spec = None) specs)
    in
    let decided, _ =
      Fabric.dispatch session ~n_cells:(List.length cold)
        (List.mapi
           (fun slot (spec : Spec.t) ->
             Fabric.Search
               { slot; spec; config = minheap_config; cost = Planner.search_cost spec })
           cold)
    in
    List.iteri
      (fun slot spec -> Minheap.record minheap_config spec (Minheap.minimum decided.(slot)))
      cold;
    List.iter
      (fun (spec : Spec.t) ->
        let words = Option.get (Minheap.find_cached minheap_config spec) in
        log_minheap spec words;
        Hashtbl.replace minheaps spec.Spec.name words)
      specs;
    let plan =
      Planner.plan ~controllers:config.controllers ~invocations:config.invocations
        ~base_seed:config.base_seed ~machine:(scaled_machine config) ~cost:config.cost
        ~region_words:config.region_words ~heap_factors:config.heap_factors
        ~minheap:(fun ~bench ->
          match Hashtbl.find_opt minheaps bench with
          | Some w -> w
          | None -> invalid_arg "Harness: plan references an unmeasured benchmark")
        ~specs ~gcs ()
    in
    let n_cells = Planner.n_cells plan in
    (* Phase boundaries: wall-clock stamps around execution, plus local
       {!Gcr_runtime.Profile} snapshots so setup/tape/simulate self-time
       is attributed to the execute window only (minheap probes also tick
       those counters, but inside [plan_s]). *)
    let plan_done = Unix.gettimeofday () in
    let prof_plan = Gcr_runtime.Profile.snapshot () in
    let results, stats =
      Fabric.dispatch session ~n_cells (List.map (fabric_group_of config) (Planner.groups plan))
    in
    let worker_rows = Fabric.worker_rows session in
    Fabric.shutdown session;
    let execute_done = Unix.gettimeofday () in
    let prof_exec = Gcr_runtime.Profile.snapshot () in
    (* Reduce in submission order: the recorded campaign is a pure
       function of the plan, identical whatever the worker count. *)
    let cells = Hashtbl.create 512 in
    let record ~bench ~gc ~factor ~controller m =
      let key = key_of ~bench ~gc ~factor ~controller in
      let cell =
        match Hashtbl.find_opt cells key with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace cells key c;
            c
      in
      cell := m :: !cell
    in
    List.iter
      (fun (c : Planner.cell) ->
        record ~bench:c.Planner.bench ~gc:c.Planner.gc ~factor:c.Planner.factor
          ~controller:c.Planner.controller results.(c.Planner.index))
      (Planner.cells plan);
    (* Controller visibility: how much the limit moved and where footprint
       ended up. *)
    let limit_changes_total = ref 0 in
    let peak_footprint = ref 0 in
    let footprint_sum = ref 0.0 in
    Array.iter
      (fun (m : Measurement.t) ->
        limit_changes_total := !limit_changes_total + m.Measurement.limit_changes;
        peak_footprint := max !peak_footprint m.Measurement.heap_limit_peak_words;
        footprint_sum := !footprint_sum +. Measurement.mean_footprint_words m)
      results;
    let finished = Unix.gettimeofday () in
    let elapsed_s = finished -. started in
    let plan_s = plan_done -. started in
    let execute_s = execute_done -. plan_done in
    let reduce_s = finished -. execute_done in
    let exec_profile = Gcr_runtime.Profile.diff prof_exec prof_plan in
    let self field =
      Gcr_runtime.Profile.seconds (field exec_profile + field stats.Fabric.worker_profile)
    in
    let cache_hits = stats.Fabric.cache_hits in
    let summary =
      {
        cells = n_cells;
        cache_hits;
        cache_misses = n_cells - cache_hits;
        worker_processes = List.length worker_rows;
        per_worker = stats.Fabric.per_worker;
        reassigned_cells = stats.Fabric.reassigned_cells;
        parent_cells = stats.Fabric.parent_cells;
        elapsed_s;
        plan_s;
        execute_s;
        reduce_s;
        setup_s = self (fun p -> p.Gcr_runtime.Profile.setup_us);
        tape_s = self (fun p -> p.Gcr_runtime.Profile.tape_us);
        simulate_s = self (fun p -> p.Gcr_runtime.Profile.simulate_us);
        cells_per_sec = (if execute_s > 0.0 then float_of_int n_cells /. execute_s else 0.0);
        limit_changes = !limit_changes_total;
        peak_footprint_words = !peak_footprint;
        mean_footprint_words =
          (if n_cells = 0 then 0.0 else !footprint_sum /. float_of_int n_cells);
        worker_deaths = Fabric.worker_deaths session;
        stolen_groups = 0;
        worker_rows;
      }
    in
    if config.log_progress then begin
      let count label n = if n > 0 then Printf.sprintf " %s=%d" label n else "" in
      Printf.eprintf
        "[harness] %d cells in %.1fs (plan %.1fs, execute %.1fs at %.1f cells/s, reduce \
         %.2fs): %d cache hits, %d executed; workers=%d%s%s%s\n\
         %!"
        n_cells elapsed_s plan_s execute_s summary.cells_per_sec reduce_s cache_hits
        summary.cache_misses summary.worker_processes
        (String.concat ""
           (Array.to_list (Array.mapi (Printf.sprintf " w%d=%d") summary.per_worker)))
        (count "reassigned" summary.reassigned_cells)
        (count "parent" summary.parent_cells);
      if summary.limit_changes > 0 then
        Printf.eprintf
          "[harness] controllers: %d limit changes, peak footprint %d words, mean %.0f \
           words/cell\n\
           %!"
          summary.limit_changes summary.peak_footprint_words summary.mean_footprint_words;
      List.iter
        (fun (r : Fabric.worker_row) ->
          Printf.eprintf "[harness]   worker %d (%s): %d cells%s\n%!" r.Fabric.row_id
            r.Fabric.row_host r.Fabric.row_cells
            (if r.Fabric.row_alive then "" else " (died)"))
        worker_rows
    end;
    { config; specs; gc_kinds = gcs; minheaps; cells; summary }
  in
  Fun.protect ~finally:(fun () -> Fabric.shutdown session) run

let observations t metric ~bench ~factor =
  let kinds =
    if List.mem Registry.Epsilon t.gc_kinds then t.gc_kinds
    else Registry.Epsilon :: t.gc_kinds
  in
  List.filter_map
    (fun gc -> Lbo.observation metric (runs t ~bench ~gc ~factor))
    kinds

let ideal t metric ~bench ~factor =
  match observations t metric ~bench ~factor with
  | [] -> None
  | obs -> Some (Lbo.ideal_estimate obs)

let lbo_value t metric ~bench ~gc ~factor =
  match (ideal t metric ~bench ~factor, Lbo.observation metric (runs t ~bench ~gc ~factor)) with
  | Some ideal, Some o -> Some (Lbo.lbo ~ideal ~total:o.Lbo.total)
  | None, _ | _, None -> None

let lbo_geomean t metric ~benches ~gc ~factor =
  match benches with
  | [] -> None (* an empty selection has no mean, not an exception *)
  | benches ->
      let values = List.map (fun bench -> lbo_value t metric ~bench ~gc ~factor) benches in
      if List.exists Option.is_none values then None
      else Some (Stats.geomean (Array.of_list (List.filter_map Fun.id values)))
