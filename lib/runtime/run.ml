module Machine = Gcr_mach.Machine
module Obs = Gcr_obs.Obs
module Cost_model = Gcr_mach.Cost_model
module Heap = Gcr_heap.Heap
module Engine = Gcr_engine.Engine
module Prng = Gcr_util.Prng
module Gc_types = Gcr_gcs.Gc_types
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Mutator = Gcr_workloads.Mutator
module Longlived = Gcr_workloads.Longlived
module Latency = Gcr_workloads.Latency
module Decision_source = Gcr_workloads.Decision_source
module Tape = Gcr_tape.Tape
module Controller = Gcr_policy.Controller

type tape_mode =
  | Tape_off
  | Tape_record of (Tape.t -> unit)
  | Tape_replay of Decision_source.image

type probe = {
  probe_heap : Heap.t;
  probe_roots : (Gcr_heap.Obj_model.id -> unit) -> unit;
  probe_packets : unit -> int;
}

type config = {
  spec : Spec.t;
  gc : Registry.kind;
  heap_words : int;
  machine : Machine.t;
  cost : Cost_model.t;
  seed : int;
  region_words : int;
  max_events : int option;
  make_collector : (Gc_types.ctx -> Gc_types.t) option;
  tape : tape_mode;
  controller : Controller.spec;
}

let default_region_words = 256

(* A per-worker pool of the big per-run structures.  The engine (and the
   obs spine it owns) and the heap are built on the first run through a
   state and reset in place by every later one; collectors, mutators, and
   PRNGs are still constructed per run (they are cheap and deeply
   config-dependent).  The heap is created against the pooled engine's
   spine, and the engine is never replaced within a state, so the
   heap→obs reference stays correct across reuse. *)
type state = {
  mutable st_engine : Engine.t option;
  mutable st_heap : Heap.t option;
}

let new_state () = { st_engine = None; st_heap = None }

let state_heap state = state.st_heap

(* Healthy runs use a few engine events per packet plus a few dozen per
   collection; 100x headroom separates "slow" from "pathological". *)
let default_max_events (spec : Spec.t) =
  (100 * spec.Spec.mutator_threads * spec.Spec.packets_per_thread) + 5_000_000

let default_config ~spec ~gc ~heap_words ~seed =
  {
    spec;
    gc;
    heap_words;
    machine = Machine.default;
    cost = Cost_model.default;
    seed;
    region_words = default_region_words;
    max_events = None;
    make_collector = None;
    tape = Tape_off;
    controller = Controller.fixed;
  }

let check_replay_image config (spec : Spec.t) image =
  let fail fmt =
    Printf.ksprintf (fun s -> invalid_arg ("Run.execute: replay tape " ^ s)) fmt
  in
  if Decision_source.image_spec_digest image <> Spec.digest spec then
    fail "is for benchmark %S (spec digest %s), which is not the spec of this run"
      (Decision_source.image_benchmark image)
      (Decision_source.image_spec_digest image);
  if Decision_source.image_seed image <> config.seed then
    fail "was recorded under seed %d, run uses %d"
      (Decision_source.image_seed image)
      config.seed;
  if Decision_source.image_threads image <> spec.Spec.mutator_threads then
    fail "has %d streams, spec has %d threads"
      (Decision_source.image_threads image)
      spec.Spec.mutator_threads

(* A run split at the engine boundary: [prepare] builds the whole stack
   and starts the workload without processing a single event; [step]
   advances it to a time horizon; [finish] runs it to completion and
   produces the measurement.  [execute] below is prepare∘finish — the
   historical single-shot path, bit-identical to the pre-split code.  The
   split exists for the multi-tenant memory market, which interleaves
   several prepared runs in epochs under one machine-wide budget. *)
type session = {
  ses_config : config;
  ses_engine : Engine.t;
  ses_heap : Heap.t;
  ses_obs : Obs.t;
  ses_gc : Gc_types.t;
  ses_capacity_words : int;
  ses_has_latency : bool;
  ses_max_events : int;
  ses_capture : unit -> unit;
  mutable ses_outcome : Engine.outcome option;
}

let prepare ?state ?(on_engine = fun (_ : Engine.t) -> ()) ?on_pause
    ?arrivals_override config =
  let setup_started = Unix.gettimeofday () in
  let spec = config.spec in
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Run.execute: " ^ msg));
  let capacity_words =
    match config.gc with
    | Registry.Epsilon -> config.machine.Machine.memory_words
    | Registry.Serial | Registry.Parallel | Registry.G1 | Registry.Shenandoah
    | Registry.Zgc | Registry.Shenandoah_gen | Registry.Lxr
    | Registry.Serial_pretenure ->
        config.heap_words
  in
  let cpus = config.machine.Machine.cpus in
  let safepoint_sync_cycles =
    config.cost.Cost_model.safepoint_global
    + (config.cost.Cost_model.safepoint_per_thread * spec.Spec.mutator_threads)
  in
  let cache_disruption_cycles = config.cost.Cost_model.cache_disruption_per_pause in
  let engine =
    match state with
    | Some { st_engine = Some e; _ } ->
        Engine.reset e ~cpus ~safepoint_sync_cycles ~cache_disruption_cycles ();
        e
    | Some s ->
        let e = Engine.create ~cpus ~safepoint_sync_cycles ~cache_disruption_cycles () in
        s.st_engine <- Some e;
        e
    | None -> Engine.create ~cpus ~safepoint_sync_cycles ~cache_disruption_cycles ()
  in
  on_engine engine;
  let obs = Engine.obs engine in
  let heap =
    match state with
    | Some { st_heap = Some h; _ } ->
        Heap.reset h ~capacity_words ~region_words:config.region_words;
        h
    | Some s ->
        let h = Heap.create ~obs ~capacity_words ~region_words:config.region_words () in
        s.st_heap <- Some h;
        h
    | None -> Heap.create ~obs ~capacity_words ~region_words:config.region_words ()
  in
  let ctx = Gc_types.make_ctx ~heap ~engine ~cost:config.cost ~machine:config.machine in
  let gc =
    match config.make_collector with
    | Some make -> make ctx
    | None -> Registry.make config.gc ctx
  in
  (* The sizing controller observes at pause_end — the world is stopped
     and this collection's reclamation is complete, so live_words is as
     honest as it gets and resizing the region array is safe.  [Fixed]
     wires nothing at all: no subscriber, no events, and therefore a
     spine bit-identical to a build that predates controllers. *)
  if not (Controller.is_fixed config.controller) then begin
    let ctl =
      Controller.make config.controller
        ~min_heap_words:(2 * config.region_words)
        ~max_heap_words:config.machine.Machine.memory_words
    in
    let cause_id = Obs.intern obs (Controller.name config.controller) in
    Obs.subscribe obs
      {
        Obs.sub_name = "heap-controller";
        on_event =
          (fun ~time ~code ~a:_ ~b:_ ~c:_ ->
            if code = Gcr_obs.Event.code_pause_end then begin
              let sample =
                {
                  Controller.now = time;
                  live_words = Heap.live_words_exact heap;
                  capacity_words = Heap.capacity_words heap;
                  allocated_words = Heap.words_allocated_total heap;
                  gc_cycles = Obs.cycles_of_kind obs Gcr_obs.Event.gc_worker_kind;
                  mutator_cycles = Obs.cycles_of_kind obs Gcr_obs.Event.mutator_kind;
                }
              in
              match Controller.observe ctl sample with
              | None -> ()
              | Some w -> ignore (Heap.set_capacity heap ~capacity_words:w ~cause_id)
            end);
      }
  end;
  (* The PRNG split order (long-lived graph, then one stream per mutator
     thread, then the latency schedule) is the contract tapes are recorded
     against — Tape_gen.generate replicates it exactly.  In replay mode no
     root generator exists at all: every decision comes off the image. *)
  let sources, arrivals_for, capture_tape =
    match config.tape with
    | Tape_off ->
        let root_prng = Prng.create config.seed in
        let (_ : Prng.t) = Prng.split root_prng in
        let sources =
          List.init spec.Spec.mutator_threads (fun _ ->
              Decision_source.live ~spec (Prng.split root_prng))
        in
        (sources, (fun () -> Latency.arrival_schedule ~spec
                     ~threads:spec.Spec.mutator_threads (Prng.split root_prng)),
         fun _ _ -> ())
    | Tape_record sink ->
        let root_prng = Prng.create config.seed in
        let (_ : Prng.t) = Prng.split root_prng in
        let sources =
          List.init spec.Spec.mutator_threads (fun _ ->
              Decision_source.record ~spec (Prng.split root_prng))
        in
        let capture sources arrivals =
          sink
            {
              Tape.benchmark = spec.Spec.name;
              spec_digest = Spec.digest spec;
              seed = config.seed;
              streams =
                Array.of_list (List.map Decision_source.recorded_stream sources);
              arrivals;
            }
        in
        (sources, (fun () -> Latency.arrival_schedule ~spec
                     ~threads:spec.Spec.mutator_threads (Prng.split root_prng)),
         capture)
    | Tape_replay image ->
        check_replay_image config spec image;
        let sources =
          List.init spec.Spec.mutator_threads (fun thread ->
              Decision_source.replay image ~thread)
        in
        (sources, (fun () -> Decision_source.image_arrivals image), fun _ _ -> ())
  in
  let longlived = Longlived.create ctx ~spec in
  let mutators =
    List.map2
      (fun index ds -> Mutator.create ctx ~gc ~spec ~longlived ~ds ~index)
      (List.init spec.Spec.mutator_threads Fun.id)
      sources
  in
  (ctx.Gc_types.iter_roots :=
     fun f ->
       Longlived.iter_roots longlived f;
       List.iter (fun m -> Mutator.iter_roots m f) mutators);
  (* The pause probe fires on the pause_begin event itself — after the
     world is stopped, before the collector's pause callback has run (and
     thus before anything is freed this pause): every collector sees the
     same heap at the same safepoints. *)
  (match on_pause with
  | None -> ()
  | Some hook ->
      let probe =
        {
          probe_heap = heap;
          probe_roots = (fun f -> !(ctx.Gc_types.iter_roots) f);
          probe_packets =
            (fun () ->
              List.fold_left (fun acc m -> acc + Mutator.packets_executed m) 0 mutators);
        }
      in
      Obs.subscribe obs
        {
          Obs.sub_name = "pause-probe";
          on_event =
            (fun ~time:_ ~code ~a:_ ~b:_ ~c:_ ->
              if code = Gcr_obs.Event.code_pause_begin then hook probe);
        });
  let arrivals = ref [||] in
  let latency =
    match spec.Spec.latency with
    | None ->
        List.iter Mutator.start_batch mutators;
        None
    | Some _ ->
        arrivals :=
          (match arrivals_override with Some a -> a | None -> arrivals_for ());
        let l = Latency.create ctx ~spec ~mutators ~arrivals:!arrivals in
        Latency.start l;
        Some l
  in
  let max_events =
    match config.max_events with Some n -> n | None -> default_max_events spec
  in
  Profile.add_setup_s (Unix.gettimeofday () -. setup_started);
  {
    ses_config = config;
    ses_engine = engine;
    ses_heap = heap;
    ses_obs = obs;
    ses_gc = gc;
    ses_capacity_words = capacity_words;
    ses_has_latency = latency <> None;
    ses_max_events = max_events;
    (* Aborted runs still leave a valid tape: the captured prefix plus the
       cursor's PRNG fallback reproduce any longer sibling run exactly. *)
    ses_capture = (fun () -> capture_tape sources !arrivals);
    ses_outcome = None;
  }

let session_engine s = s.ses_engine

let session_heap s = s.ses_heap

let session_obs s = s.ses_obs

let session_now s = Engine.now s.ses_engine

let step s ~until =
  match s.ses_outcome with
  | Some _ -> false
  | None ->
      let simulate_started = Unix.gettimeofday () in
      let r = Engine.run_until s.ses_engine ~time:until ~max_events:s.ses_max_events () in
      Profile.add_simulate_s (Unix.gettimeofday () -. simulate_started);
      (match r with
      | Some o -> s.ses_outcome <- Some o
      | None -> ());
      r = None

let finish s =
  (match s.ses_outcome with
  | Some _ -> ()
  | None ->
      let simulate_started = Unix.gettimeofday () in
      let o = Engine.run s.ses_engine ~max_events:s.ses_max_events () in
      Profile.add_simulate_s (Unix.gettimeofday () -. simulate_started);
      s.ses_outcome <- Some o);
  let outcome =
    match s.ses_outcome with
    | Some Engine.All_mutators_finished -> Measurement.Completed
    | Some (Engine.Aborted reason) -> Measurement.Failed reason
    | None -> assert false
  in
  s.ses_capture ();
  let config = s.ses_config in
  let spec = config.spec in
  Measurement.of_obs ~benchmark:spec.Spec.name ~gc:(Registry.name config.gc)
    ~heap_words:s.ses_capacity_words ~seed:config.seed ~outcome
    ~wall_total:(Engine.now s.ses_engine) ~has_latency:s.ses_has_latency
    ~allocated_words:(Heap.words_allocated_total s.ses_heap)
    ~allocated_objects:(Heap.objects_allocated_total s.ses_heap)
    ~gc_stats:(s.ses_gc.Gc_types.stats ()) s.ses_obs

let execute ?state ?on_engine ?on_pause config =
  finish (prepare ?state ?on_engine ?on_pause config)

let execute_ideal ~spec ~machine ~seed =
  let config =
    {
      spec;
      gc = Registry.Epsilon;
      heap_words = machine.Machine.memory_words;
      machine;
      cost = Cost_model.zero_barriers Cost_model.default;
      seed;
      region_words = default_region_words;
      max_events = None;
      make_collector = None;
      tape = Tape_off;
      controller = Controller.fixed;
    }
  in
  execute config
