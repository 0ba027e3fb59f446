module Machine = Gcr_mach.Machine
module Cost_model = Gcr_mach.Cost_model
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Pool = Gcr_sched.Pool
module Result_cache = Gcr_sched.Result_cache

type config = {
  machine : Machine.t;
  cost : Cost_model.t;
  region_words : int;
  seed : int;
  gc : Registry.kind;
  tapes : bool;
}

let tapes_enabled () =
  match Sys.getenv_opt "GCR_TAPES" with Some ("0" | "false" | "off") -> false | _ -> true

let default_config () =
  {
    machine = Machine.default;
    cost = Cost_model.default;
    region_words = Run.default_region_words;
    seed = 7;
    gc = Registry.G1;
    tapes = tapes_enabled ();
  }

(* Key the caches on everything that can change the answer: every spec
   field (through its digest) and every cost-model field (minimum heaps
   move when costs do).  The name stays in the clear for readability. *)
let cache_key config (spec : Spec.t) =
  Printf.sprintf "%s|spec=%s|gc=%s|seed=%d|region=%d|cpus=%d|%s" spec.Spec.name
    (Spec.digest spec) (Registry.name config.gc) config.seed config.region_words
    config.machine.Machine.cpus
    (Gcr_sched.Cache_key.render_cost config.cost)

let memo : (string, int) Hashtbl.t = Hashtbl.create 32

let clear_memo () = Hashtbl.reset memo

let cache_path () =
  match Sys.getenv_opt "GCR_CACHE_DIR" with
  | Some dir -> Some (Filename.concat dir "minheap.tsv")
  | None ->
      let dir = Filename.concat (Sys.getcwd ()) ".gcr-cache" in
      let usable =
        (Sys.file_exists dir && Sys.is_directory dir)
        || (try Sys.mkdir dir 0o755; true with Sys_error _ -> false)
      in
      if usable then Some (Filename.concat dir "minheap.tsv") else None

let load_file_cache () =
  match cache_path () with
  | None -> ()
  | Some path when not (Sys.file_exists path) -> ()
  | Some path -> (
      try
        let ic = open_in path in
        (try
           while true do
             let line = input_line ic in
             match String.split_on_char '\t' line with
             | [ key; words ] -> (
                 match int_of_string_opt words with
                 | Some w -> Hashtbl.replace memo key w
                 | None -> ())
             | _ -> ()
           done
         with End_of_file -> ());
        close_in ic
      with Sys_error _ -> ())

let append_file_cache key words =
  match cache_path () with
  | None -> ()
  | Some path -> (
      try
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        Printf.fprintf oc "%s\t%d\n" key words;
        close_out oc
      with Sys_error _ -> ())

let file_cache_loaded = ref false

(* Probes share the campaign result cache (when GCR_CACHE_DIR is set), so
   a repeated search replays every probe from disk even in a fresh
   process, on top of the minheap.tsv memo of final answers. *)
let result_cache = lazy (Result_cache.of_env ())

(* Likewise the search tape: published to (and fetched from) the same
   content-addressed store the campaign fabric uses, so a campaign and
   its minheap searches generate each (spec, seed) tape exactly once
   across all processes. *)
let tape_store = lazy (Gcr_sched.Artifact_store.of_env ())

let tape_image ~spec ~seed =
  let started = Unix.gettimeofday () in
  let image =
    match Lazy.force tape_store with
    | None -> Gcr_workloads.Tape_gen.image ~spec ~seed
    | Some store -> (
        match Gcr_sched.Artifact_store.find_tape store ~spec ~seed with
        | Some tape -> Gcr_workloads.Decision_source.image_of_tape ~spec tape
        | None ->
            let tape = Gcr_workloads.Tape_gen.generate ~spec ~seed in
            Gcr_sched.Artifact_store.store_tape store tape;
            Gcr_workloads.Decision_source.image_of_tape ~spec tape)
  in
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

let completes config spec ?state ~tape heap_words =
  Measurement.completed
    (Pool.execute
       ?cache:(Lazy.force result_cache)
       ?state
       (probe_run_config config spec ~tape heap_words))

(* The search as an explicit state machine, so an external driver — the
   fabric's probe waves — can run many searches concurrently, one probe
   per step, while the inline driver below walks the identical sequence:
   exponential doubling from the floor to a completing upper bound, then
   bisection down to one region.  The probe order is a pure function of
   the completion answers, so any driver lands on the same minimum. *)
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

  (* The next heap size to probe, in regions; [None] when finished.
     Raises [Failure] when doubling escapes machine memory — the
     benchmark cannot complete at all. *)
  let probe_regions t =
    match t.phase with
    | Finished _ -> None
    | Upper n ->
        if n > t.memory_regions then
          failwith
            (Printf.sprintf "Minheap.find: %s does not complete even in machine memory"
               t.s_spec.Spec.name)
        else Some n
    | Bisect (lo, hi) -> Some ((lo + hi) / 2)

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

  let probe_config t =
    match probe_regions t with
    | None -> None
    | Some n ->
        Some (probe_run_config t.s_config t.s_spec ~tape:Run.Tape_off
                (n * t.s_config.region_words))
end

let search config spec =
  (* Every probe shares (spec, seed): one tape image serves the whole
     search.  Thrashing probes overrun the recorded stream with retry
     re-draws; the cursor's PRNG fallback keeps them bit-identical. *)
  let tape =
    if config.tapes then Run.Tape_replay (tape_image ~spec ~seed:config.seed)
    else Run.Tape_off
  in
  (* One warm run-state serves every probe of the search: the bisection
     is a long chain of same-spec runs, exactly the reuse the warm path
     exists for. *)
  let state = if Run.warm_enabled () then Some (Run.new_state ()) else None in
  let s = Search.start config spec in
  let rec loop () =
    match Search.probe_regions s with
    | None -> (
        match Search.result_words s with
        | Some words -> words
        | None -> assert false)
    | Some n ->
        let completed = completes config spec ?state ~tape (n * config.region_words) in
        Search.advance s ~completed;
        loop ()
  in
  loop ()

let ensure_file_cache () =
  if not !file_cache_loaded then begin
    file_cache_loaded := true;
    load_file_cache ()
  end

let find_cached config spec =
  ensure_file_cache ();
  Hashtbl.find_opt memo (cache_key config spec)

let record config spec words =
  ensure_file_cache ();
  let key = cache_key config spec in
  if not (Hashtbl.mem memo key) then begin
    Hashtbl.replace memo key words;
    append_file_cache key words
  end

let find ?config spec =
  let config = match config with Some c -> c | None -> default_config () in
  match find_cached config spec with
  | Some words -> words
  | None ->
      let words = search config spec in
      record config spec words;
      words
