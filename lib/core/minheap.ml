module Machine = Gcr_mach.Machine
module Cost_model = Gcr_mach.Cost_model
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Pool = Gcr_sched.Pool

type config = {
  machine : Machine.t;
  cost : Cost_model.t;
  region_words : int;
  seed : int;
  gc : Registry.kind;
  tapes : bool;
}

(* Key the memo on everything that can change the answer: every spec
   field (through its digest) and every cost-model field (minimum heaps
   move when costs do). *)
let cache_key config (spec : Spec.t) =
  Printf.sprintf "%s|spec=%s|gc=%s|seed=%d|region=%d|cpus=%d|%s" spec.Spec.name
    (Spec.digest spec) (Registry.name config.gc) config.seed config.region_words
    config.machine.Machine.cpus
    (Gcr_sched.Cache_key.render_cost config.cost)

let memo : (string, int) Hashtbl.t = Hashtbl.create 32

let clear_memo () = Hashtbl.reset memo

let tape_image ~spec ~seed =
  let started = Unix.gettimeofday () in
  let image = Gcr_workloads.Tape_gen.image ~spec ~seed in
  Gcr_runtime.Profile.add_tape_s (Unix.gettimeofday () -. started);
  image

let probe_run_config config (spec : Spec.t) ~tape heap_words =
  {
    Run.spec;
    gc = config.gc;
    heap_words;
    machine = config.machine;
    cost = config.cost;
    seed = config.seed;
    region_words = config.region_words;
    max_events =
      (* probes must fail fast when the heap is too small to be useful *)
      Some ((12 * spec.Spec.mutator_threads * spec.Spec.packets_per_thread) + 2_000_000);
    make_collector = None;
    tape;
    (* probes define the static minimum: controllers never move the
       limit during a minheap search *)
    controller = Gcr_policy.Controller.fixed;
  }

(* The search as an explicit state machine: exponential doubling from
   the floor to a completing upper bound, then bisection down to one
   region.  The probe order is a pure function of the completion
   answers, so a walk of its probes from outside (perfbench's traced
   walk, the golden floor probe) lands where {!search} does. *)
module Search = struct
  type phase = Upper of int | Bisect of int * int | Finished of int

  type t = {
    s_config : config;
    s_spec : Spec.t;
    floor_regions : int;
    memory_regions : int;
    mutable phase : phase;
  }

  let start config (spec : Spec.t) =
    let region = config.region_words in
    {
      s_config = config;
      s_spec = spec;
      floor_regions = max 8 (Spec.live_words_estimate spec / region);
      memory_regions = config.machine.Machine.memory_words / region;
      phase = Upper (max 8 (Spec.live_words_estimate spec / region));
    }

  let advance t ~completed =
    match t.phase with
    | Finished _ -> invalid_arg "Minheap.Search.advance: search already finished"
    | Upper n ->
        if completed then begin
          (* invariant entering bisection: hi completes, lo does not
             (or is 0 — the floor itself completed on the first probe) *)
          let known_failing = if n > t.floor_regions then n / 2 else 0 in
          if n - known_failing <= 1 then t.phase <- Finished n
          else t.phase <- Bisect (known_failing, n)
        end
        else t.phase <- Upper (n * 2)
    | Bisect (lo, hi) ->
        let mid = (lo + hi) / 2 in
        let lo, hi = if completed then (lo, mid) else (mid, hi) in
        if hi - lo <= 1 then t.phase <- Finished hi else t.phase <- Bisect (lo, hi)

  let result_words t =
    match t.phase with
    | Finished hi -> Some (hi * t.s_config.region_words)
    | Upper _ | Bisect _ -> None

  (* Raises [Planner.Unrunnable] when doubling escapes machine memory:
     the benchmark cannot complete at all. *)
  let probe_config t =
    let probe regions =
      let words = regions * t.s_config.region_words in
      Some (probe_run_config t.s_config t.s_spec ~tape:Run.Tape_off words)
    in
    match t.phase with
    | Finished _ -> None
    | Upper n when n > t.memory_regions ->
        raise
          (Planner.Unrunnable
             (Printf.sprintf "%s does not complete even in machine memory (%d words)"
                t.s_spec.Spec.name t.s_config.machine.Machine.memory_words))
    | Upper n -> probe n
    | Bisect (lo, hi) -> probe ((lo + hi) / 2)
end

let search ?cache ?(state = Run.new_state ()) ?(before_probe = ignore) config spec =
  (* Every probe shares (spec, seed): one tape image serves the whole
     search.  Thrashing probes overrun the recorded stream with retry
     re-draws; the cursor's PRNG fallback keeps them bit-identical. *)
  let tape =
    if config.tapes then Run.Tape_replay (tape_image ~spec ~seed:config.seed)
    else Run.Tape_off
  in
  let s = Search.start config spec in
  (* Each completing probe lowers the upper bound, so the last one to
     complete is the probe at the minimum. *)
  let rec loop decisive =
    match Search.probe_config s with
    | exception (Planner.Unrunnable reason as exn) ->
        (* a result, not an exception, so that a fabric worker returns
           it: the labels of a probe at the whole machine memory *)
        let probe =
          probe_run_config config spec ~tape:Run.Tape_off config.machine.Machine.memory_words
        in
        { (Pool.failed_of_exn probe exn) with Measurement.outcome = Measurement.Failed reason }
    | None -> Option.get decisive
    | Some probe ->
        before_probe ();
        (* [state] is warm across probes: the bisection is a long chain of
           same-spec runs, exactly the reuse the warm path exists for *)
        let m = Pool.execute ?cache ~state { probe with Run.tape } in
        let completed = Measurement.completed m in
        Search.advance s ~completed;
        loop (if completed then Some m else decisive)
  in
  loop None

let minimum (m : Measurement.t) =
  match m.Measurement.outcome with
  | Measurement.Completed -> m.Measurement.heap_words
  | Measurement.Failed reason -> raise (Planner.Unrunnable reason)

let find_cached config spec = Hashtbl.find_opt memo (cache_key config spec)

let record config spec words =
  let key = cache_key config spec in
  if not (Hashtbl.mem memo key) then Hashtbl.replace memo key words

let find ?cache ~config spec =
  match find_cached config spec with
  | Some words -> words
  | None ->
      let words = minimum (search ?cache config spec) in
      record config spec words;
      words
