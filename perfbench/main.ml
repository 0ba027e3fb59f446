(* The repository benchmark: three workloads over the campaign toolchain.

     main.exe --workload artefact|minheap|fabric --seed N --seconds S --trace 0|1

   With [--trace 0] it prints the end-to-end metrics; with [--trace 1] it
   also runs a traced walk of the same work and prints the per-layer
   ledger.  Every run checks its simulated results against the digests
   pinned in [perfbench/pins.txt] (or, for an unpinned seed, against its
   own first repetition) and prints one JSON object as its last line.
   [--pin] prints the pin lines for a seed instead.  See README.md. *)

module Harness = Gcr_core.Harness
module Minheap = Gcr_core.Minheap
module Planner = Gcr_core.Planner
module Report = Gcr_core.Report
module Validate = Gcr_core.Validate
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Suite = Gcr_workloads.Suite
module Tape_gen = Gcr_workloads.Tape_gen
module Decision_source = Gcr_workloads.Decision_source
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Profile = Gcr_runtime.Profile
module Machine = Gcr_mach.Machine
module Engine = Gcr_engine.Engine
module Cache_key = Gcr_sched.Cache_key
module Artifact_store = Gcr_sched.Artifact_store
module Transport = Gcr_sched.Transport
module Tape = Gcr_tape.Tape
module Event = Gcr_obs.Event
module Perfetto = Gcr_obs.Perfetto

let now = Unix.gettimeofday

(* ---------- workloads ---------- *)

type shape = {
  benches : string list;
  scale : float;
  factors : float list;
  invocations : int;
  workers : int option;
  render : bool;  (** render every Report/Validate table after the campaign *)
}

let artefact =
  {
    benches = [ "tomcat"; "h2"; "xalan" ];
    scale = 0.02;
    factors = Harness.paper_heap_factors;
    invocations = 1;
    workers = None;
    render = true;
  }

let fabric =
  {
    benches = [ "tomcat"; "h2"; "xalan"; "jython"; "tradebeans"; "tradesoap" ];
    scale = 0.02;
    factors = Harness.default_heap_factors;
    invocations = 2;
    workers = Some 2;
    render = false;
  }

let minheap_benches = [ "jme"; "avrora"; "xalan" ]

let minheap_scale = 0.02

(* A search's cost depends on its seed (how many probes exhaust the event
   budget), by up to 2x for this set, so the searches use one fixed search
   seed ([gcr minheap]'s default) and the benchmark seed picks the order in
   which the three searches run.  Every seed thus does the same simulated
   work, and the spread across seeds measures the host. *)
let minheap_search_seed = 7

let minheap_order ~seed =
  let n = List.length minheap_benches in
  let k = ((seed mod n) + n) mod n in
  let rotated =
    List.filteri (fun i _ -> i >= k) minheap_benches
    @ List.filteri (fun i _ -> i < k) minheap_benches
  in
  if seed / n mod 2 = 0 then rotated else List.rev rotated

let specs_of names scale = List.map (fun n -> Spec.scale (Suite.find_exn n) scale) names

let harness_config shape ~seed ~cache_dir =
  {
    (Harness.default_config ()) with
    Harness.invocations = shape.invocations;
    scale = shape.scale;
    heap_factors = shape.factors;
    workers = shape.workers;
    cache_dir = Some cache_dir;
    base_seed = seed;
  }

(* The campaign's machine and min-heap search config, derived the way
   [Harness.run_campaign] derives them, so searches resolved in set-up are
   the memo entries the campaign reads. *)
let scaled_machine (c : Harness.config) =
  let m = c.Harness.machine in
  {
    m with
    Machine.memory_words =
      max 4096 (int_of_float (float_of_int m.Machine.memory_words *. c.Harness.scale));
  }

let minheap_config_of (c : Harness.config) =
  {
    Minheap.machine = scaled_machine c;
    cost = c.Harness.cost;
    region_words = c.Harness.region_words;
    seed = c.Harness.base_seed;
    gc = Registry.G1;
    tapes = c.Harness.tapes;
  }

let minheap_shape = { artefact with scale = minheap_scale }

(* ---------- host helpers ---------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let proc_field file key =
  match read_file file with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
                 (match String.split_on_char ' ' v with
                 | n :: _ -> float_of_string_opt n
                 | [] -> None)
             | _ -> None)

let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with Some kb -> kb /. 1024.0 | None -> 0.0

(* Restart the VmHWM high-water mark, so each repetition reports its own
   peak rather than the maximum over however many ran before it. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let nproc () =
  match read_file "/proc/cpuinfo" with
  | exception Sys_error _ -> 1
  | text ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' text))

let loadavg_1m () =
  match read_file "/proc/loadavg" with
  | exception Sys_error _ -> -1.0
  | text -> (
      match String.split_on_char ' ' text with
      | v :: _ -> Option.value ~default:(-1.0) (float_of_string_opt v)
      | [] -> -1.0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Every repetition runs in a fresh directory that is both its cwd and its
   cache dir, so no run can warm a later one. *)
let work_root = ref ""

let fresh_counter = ref 0

let with_fresh_dir f =
  incr fresh_counter;
  let dir = Filename.concat !work_root (Printf.sprintf "rep-%d" !fresh_counter) in
  Unix.mkdir dir 0o700;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm_rf dir)
    (fun () -> f dir)

(* Report renderers print to stdout; capture them into a file so the
   benchmark's own stdout stays parseable, and digest what they wrote. *)
let capture_stdout path f =
  flush stdout;
  Format.pp_print_flush Format.std_formatter ();
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.pp_print_flush Format.std_formatter ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  read_file path

(* Every Report/Validate renderer, as [gcr artefact all] prints them; the
   figures that default to lusearch are drawn for tomcat, the grid's
   latency-sensitive benchmark. *)
let render_all campaign =
  let bench = "tomcat" in
  Report.worked_example campaign ~bench:"h2" ();
  Report.table_vi campaign;
  Report.table_vii campaign;
  Report.table_viii campaign;
  Report.table_ix campaign;
  Report.table_x campaign;
  Report.table_xi campaign;
  Report.fig1 ~bench campaign;
  Report.fig2 ~bench campaign;
  Report.fig3 ~bench campaign;
  Report.fig4 ~bench campaign;
  Report.table_energy campaign;
  Report.confidence_note campaign;
  Report.pause_breakdown campaign;
  Report.latency_summary campaign;
  Validate.tightness_study campaign ~factor:3.0;
  Validate.attribution_ablation campaign ~bench ()

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

(* ---------- host-speed calibration ---------- *)

(* Shared hosts change speed under the benchmark: on a shared 2-vCPU
   host, repetitions slowed by up to 40% for seconds to minutes at a time,
   from other tenants' load, and CPU time inflated with wall time.  So every timed region is sampled with a small
   fixed kernel that uses no repository code (pointer chasing over a
   512 KiB array, small allocations, a hashtable), and reported times are
   scaled by [reference_sample_s / median sample]: seconds on a host that
   runs the kernel in the reference time.  Samples are taken before and
   after the region and, through [Pool.on_execute], before cells and
   probes while it runs (in fabric workers too), at most every
   [sample_period] seconds per process.  Time spent sampling inside the
   region is subtracted.  A change to the repository's code moves the
   scaled figures as it moves the raw ones, except for what it changes in
   how much the region disturbs the kernel's caches. *)
let calibration_array =
  let n = 1 lsl 16 in
  Array.init n (fun i -> ((i * 7919) + 13) land (n - 1))

let calibration_kernel () =
  let t0 = now () in
  let a = calibration_array in
  let acc = ref 0 in
  let h = Hashtbl.create 64 in
  for round = 1 to 4 do
    let i = ref round in
    for _ = 1 to Array.length a do
      i := a.(!i);
      acc := !acc + !i
    done;
    List.iter
      (fun (k, r) -> Hashtbl.replace h (k land 63) (r + !acc))
      (List.init 4000 (fun k -> (k, round)))
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let reference_sample_s = 0.0035

let sample_period = 0.05

(* Where in-region samples go: a file, because fabric workers are
   separate processes. *)
let samples_file = ref None

let last_sample = ref 0.0

let append_sample path d =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 in
  let line = Printf.sprintf "%.9f\n" d in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd

let () =
  Gcr_sched.Pool.on_execute :=
    fun _ ->
      match !samples_file with
      | Some path when now () -. !last_sample >= sample_period ->
          append_sample path (calibration_kernel ());
          last_sample := now ()
      | Some _ | None -> ()

let sample_counter = ref 0

type timing = { wall : float; cpu : float; speed : float }

(* Time [f] with host-speed samples around and inside it.  [parallelism]
   is how many processes share the in-region samples' cost (the fabric's
   workers), to subtract them from wall time. *)
let measure ?(parallelism = 1) f =
  let before = List.init 5 (fun _ -> calibration_kernel ()) in
  incr sample_counter;
  let path =
    Filename.concat !work_root (Printf.sprintf "samples-%d" !sample_counter)
  in
  last_sample := now ();
  samples_file := Some path;
  let cpu0 = cpu_s () in
  let t0 = now () in
  let r = Fun.protect ~finally:(fun () -> samples_file := None) f in
  let wall = now () -. t0 in
  let cpu = cpu_s () -. cpu0 in
  let inside =
    match read_file path with
    | exception Sys_error _ -> []
    | text -> List.filter_map float_of_string_opt (String.split_on_char '\n' text)
  in
  (try Sys.remove path with Sys_error _ -> ());
  let after = List.init 5 (fun _ -> calibration_kernel ()) in
  let sampled = List.fold_left ( +. ) 0.0 inside in
  ( r,
    {
      wall = wall -. (sampled /. float parallelism);
      cpu = cpu -. sampled;
      speed = reference_sample_s /. median (before @ inside @ after);
    } )

(* Sum of consecutive timings, keeping [scaled_wall] additive. *)
let sum_timings ts =
  let wall = List.fold_left (fun acc t -> acc +. t.wall) 0.0 ts in
  let scaled = List.fold_left (fun acc t -> acc +. (t.wall *. t.speed)) 0.0 ts in
  {
    wall;
    cpu = List.fold_left (fun acc t -> acc +. t.cpu) 0.0 ts;
    speed = (if wall > 0.0 then scaled /. wall else 1.0);
  }

(* Host seconds scaled to the reference host speed. *)
let scaled_wall t = t.wall *. t.speed

let scaled_cpu t = t.cpu *. t.speed

(* The process's peak over the timed repetitions.  Not a median: the
   OCaml heap grows over the first repetitions before it levels off, so
   the early repetitions peak lower, and a median flips between the two
   levels from run to run. *)
let max_rss rss reps = List.fold_left (fun acc r -> Float.max acc (rss r)) 0.0 reps

(* Repeat [f] until [seconds] have passed, at least [min_reps] times. *)
let repeat ~seconds ~min_reps f =
  let min_reps = if seconds < 1.0 then 1 else min_reps in
  let deadline = now () +. seconds in
  let rec go acc n =
    let acc = f n :: acc in
    if n + 1 >= min_reps && now () >= deadline then List.rev acc else go acc (n + 1)
  in
  go [] 0

(* ---------- digests and pins ---------- *)

(* Items are pinned as 6-hex-digit digest prefixes. *)
let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 6

let missing = "------"

let digest_measurement (m : Measurement.t) =
  short_digest (Marshal.to_string m [ Marshal.No_sharing ])

let pins_path = Filename.concat "perfbench" "pins.txt"

(* pins.txt: one line per (workload, seed, field), tab-separated. *)
let load_pins () =
  let tbl = Hashtbl.create 64 in
  (match read_file pins_path with
  | exception Sys_error _ -> ()
  | text ->
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             match String.split_on_char '\t' line with
             | [ w; s; field; value ] when String.length w > 0 && w.[0] <> '#' -> (
                 match int_of_string_opt s with
                 | Some seed -> Hashtbl.replace tbl (w, seed, field) value
                 | None -> ())
             | _ -> ()));
  tbl

let pack ds = String.concat "" ds

let unpack s = List.init (String.length s / 6) (fun i -> String.sub s (i * 6) 6)

(* The reference a run is checked against: the pin when one exists, else
   the run's own first repetition (determinism across repetitions). *)
type checker = {
  pins : (string * int * string, string) Hashtbl.t;
  workload : string;
  seed : int;
  seen : (string, string) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  pinned : bool;
}

let checker ~workload ~seed =
  let pins = load_pins () in
  {
    pins;
    workload;
    seed;
    seen = Hashtbl.create 4;
    attempted = 0;
    failed = 0;
    pinned = Hashtbl.mem pins (workload, seed, "cells");
  }

(* Compare a list of per-item digests (None = missing or raised) against
   the reference for [field]; every differing or missing item fails. *)
let check_items ck field items =
  let reference =
    match Hashtbl.find_opt ck.pins (ck.workload, ck.seed, field) with
    | Some v -> Some (unpack v)
    | None -> Hashtbl.find_opt ck.seen field |> Option.map unpack
  in
  let got = List.map (Option.value ~default:missing) items in
  (match reference with
  | None -> Hashtbl.replace ck.seen field (pack got)
  | Some _ -> ());
  let n = max (List.length items) (match reference with Some r -> List.length r | None -> 0) in
  ck.attempted <- ck.attempted + n;
  let bad =
    match reference with
    | None -> List.length (List.filter Option.is_none items)
    | Some ref_items ->
        let rec count acc got ref_items =
          match (got, ref_items) with
          | [], [] -> acc
          | g :: gs, r :: rs -> count (if g = r && g <> missing then acc else acc + 1) gs rs
          | _ :: gs, [] -> count (acc + 1) gs []
          | [], _ :: rs -> count (acc + 1) [] rs
        in
        count 0 got ref_items
  in
  if bad > 0 then
    Printf.eprintf "[perfbench] %s seed %d: %d/%d %s differ from the reference\n%!"
      ck.workload ck.seed bad n field;
  ck.failed <- ck.failed + bad

let check_text ck field text =
  check_items ck field [ Some (short_digest text) ]

(* ---------- campaign repetitions (artefact, fabric) ---------- *)

type host_gc = { minor_words : float; promoted_words : float; major_collections : float }

let with_host_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = float (g1.Gc.major_collections - g0.Gc.major_collections);
    } )

type campaign_rep = {
  summary : Harness.exec_summary;
  timing : timing;
  host_gc : host_gc;
  rss_mb : float;  (** peak RSS during the repetition *)
}

let gcs = Registry.frontier

(* One repetition, from [run_campaign] until the report text is complete.
   The campaign and report are returned so the caller can check them and
   then drop them. *)
let campaign_rep shape ~seed =
  with_fresh_dir (fun dir ->
      Gc.compact ();
      reset_peak_rss ();
      let ((campaign, report), host_gc), timing =
        measure ?parallelism:shape.workers (fun () ->
            with_host_gc (fun () ->
                let campaign =
                  Harness.run_campaign
                    (harness_config shape ~seed ~cache_dir:dir)
                    ~benchmarks:(List.map Suite.find_exn shape.benches)
                    ~gcs
                in
                let report =
                  if shape.render then
                    Some
                      (capture_stdout (Filename.concat dir "report.txt") (fun () ->
                           render_all campaign))
                  else None
                in
                (campaign, report)))
      in
      let rss_mb = peak_rss_mb () in
      Printf.eprintf
        "[perfbench] repetition: %.3fs wall, %.3fs cpu, host speed %.3f, peak rss %.1f MB\n%!"
        timing.wall timing.cpu timing.speed rss_mb;
      (campaign, report, { summary = Harness.summary campaign; timing; host_gc; rss_mb }))

let plan_for shape ~seed ~minheap =
  let c = harness_config shape ~seed ~cache_dir:"" in
  Planner.plan ~controllers:c.Harness.controllers ~invocations:c.Harness.invocations
    ~base_seed:seed ~machine:(scaled_machine c) ~cost:c.Harness.cost
    ~region_words:c.Harness.region_words ~heap_factors:c.Harness.heap_factors ~minheap
    ~specs:(specs_of shape.benches shape.scale) ~gcs ()

(* A campaign's measurements in plan order; [None] for a missing cell. *)
let plan_measurements campaign plan =
  List.map
    (fun (cell : Planner.cell) ->
      List.nth_opt
        (Harness.runs ~controller:cell.Planner.controller campaign ~bench:cell.Planner.bench
           ~gc:cell.Planner.gc ~factor:cell.Planner.factor)
        cell.Planner.invocation)
    (Planner.cells plan)

let sim_mcycles ms =
  List.fold_left
    (fun acc m -> match m with Some m -> acc +. float (Measurement.cycles_total m) | None -> acc)
    0.0 ms
  /. 1e6

(* Set-up for the campaign workloads: cold min-heap searches for every
   benchmark, leaving the in-process memo the campaign will read. *)
let resolve_minheaps shape ~seed =
  with_fresh_dir (fun dir ->
      Minheap.clear_memo ();
      let config = minheap_config_of (harness_config shape ~seed ~cache_dir:dir) in
      snd
        (measure (fun () ->
             List.iter
               (fun spec -> ignore (Minheap.find ~config spec))
               (specs_of shape.benches shape.scale))))

(* ---------- minheap repetitions ---------- *)

type search = { s_bench : string; s_words : int; s_timing : timing }

type minheap_rep = {
  searches : search list;
  m_timing : timing;
  simulate_s : float;
  m_host_gc : host_gc;
  m_rss_mb : float;
}

let minheap_config () =
  minheap_config_of (harness_config minheap_shape ~seed:minheap_search_seed ~cache_dir:"")

let minheap_rep ~seed =
  with_fresh_dir (fun _ ->
      Minheap.clear_memo ();
      Gc.compact ();
      let config = minheap_config () in
      let specs = specs_of (minheap_order ~seed) minheap_scale in
      reset_peak_rss ();
      let p0 = Profile.snapshot () in
      (* calibrated per search: a repetition is long enough for the host
         speed to change within it *)
      let searches, m_host_gc =
        with_host_gc (fun () ->
            List.map
              (fun (spec : Spec.t) ->
                let words, s_timing = measure (fun () -> Minheap.find ~config spec) in
                { s_bench = spec.Spec.name; s_words = words; s_timing })
              specs)
      in
      let m_timing = sum_timings (List.map (fun s -> s.s_timing) searches) in
      let p = Profile.diff (Profile.snapshot ()) p0 in
      let m_rss_mb = peak_rss_mb () in
      Printf.eprintf
        "[perfbench] repetition: %.3fs wall, %.3fs cpu, host speed %.3f, peak rss %.1f MB\n%!"
        m_timing.wall m_timing.cpu m_timing.speed m_rss_mb;
      { searches; m_timing; simulate_s = Profile.seconds p.Profile.simulate_us; m_host_gc; m_rss_mb })

(* Set-up for the minheap workload: one roomy warm-up run per benchmark
   (the heap is the whole machine, so it always completes). *)
let minheap_warmup ~seed =
  with_fresh_dir (fun _ ->
      let config = minheap_config () in
      snd
        (measure (fun () ->
             List.iter
               (fun (spec : Spec.t) ->
                 match Minheap.Search.probe_config (Minheap.Search.start config spec) with
                 | Some rc ->
                     ignore
                       (Run.execute
                          { rc with Run.heap_words = config.Minheap.machine.Machine.memory_words })
                 | None -> ())
               (specs_of (minheap_order ~seed) minheap_scale))))

(* ---------- the walk: the same work through public per-layer calls ---------- *)

type ledger = Ledger.t option

(* One cell through prepare / engine / finish with a shared warm state.
   A raise is a missing result, as the executors record it. *)
let run_cell (l : ledger) state (rc : Run.config) =
  match
    let session =
      Ledger.span l "run.prepare" (fun () ->
          Run.prepare ~state ~on_engine:(fun e -> Ledger.attach l (Engine.obs e)) rc)
    in
    Ledger.simulate l (fun () -> ignore (Run.step session ~until:max_int));
    Ledger.span l "run.finish" (fun () -> Run.finish session)
  with
  | m -> Some m
  | exception _ -> None

let tape_image (l : ledger) ?store ~tape_bytes ~(spec : Spec.t) ~seed () =
  let tape = Ledger.span l "tape.generate" (fun () -> Tape_gen.generate ~spec ~seed) in
  let tape =
    match store with
    | None -> tape
    | Some store -> (
        Ledger.span l "store.tape_publish" (fun () -> Artifact_store.store_tape store tape);
        Ledger.span l "store.tape_fetch" (fun () ->
            match
              Artifact_store.find_tape_bytes store ~spec_digest:(Spec.digest spec) ~seed
                ~threads:spec.Spec.mutator_threads
            with
            | Some bytes -> (
                tape_bytes := !tape_bytes + String.length bytes;
                match Tape.of_string bytes with Ok t -> t | Error e -> failwith e)
            | None -> failwith "tape published but not found"))
  in
  Ledger.span l "tape.decode" (fun () -> Decision_source.image_of_tape ~spec tape)

type walk = {
  w_cells : Measurement.t option list;  (** plan order *)
  w_plan_cells : int;
  w_tape_bytes : int;
}

let campaign_walk (l : ledger) shape ~seed ~store_dir =
  let c = harness_config shape ~seed ~cache_dir:store_dir in
  let mh = minheap_config_of c in
  let specs = specs_of shape.benches shape.scale in
  let plan =
    Ledger.span l "planner.plan" (fun () ->
        plan_for shape ~seed ~minheap:(fun ~bench ->
            Minheap.find ~config:mh (List.find (fun (s : Spec.t) -> s.Spec.name = bench) specs)))
  in
  let store = Artifact_store.create ~dir:store_dir in
  let tape_bytes = ref 0 in
  let state = Run.new_state () in
  let results = Array.make (Planner.n_cells plan) None in
  List.iter
    (fun (g : Planner.group) ->
      let image =
        tape_image l ~store ~tape_bytes ~spec:g.Planner.spec ~seed:g.Planner.seed ()
      in
      List.iter
        (fun (cell : Planner.cell) ->
          ignore (Ledger.span l "cache_key" (fun () -> Cache_key.of_config cell.Planner.config));
          results.(cell.Planner.index) <-
            run_cell l state { cell.Planner.config with Run.tape = Run.Tape_replay image })
        g.Planner.cells)
    (Planner.groups plan);
  { w_cells = Array.to_list results; w_plan_cells = Planner.n_cells plan; w_tape_bytes = !tape_bytes }

(* The min-heap search as [Minheap.find] walks it — one tape image and one
   warm state per benchmark, probes in the state machine's order. *)
let minheap_walk (l : ledger) ~seed =
  let config = minheap_config () in
  let tape_bytes = ref 0 in
  List.map
    (fun (spec : Spec.t) ->
      Ledger.span l "minheap.search" (fun () ->
          let image = tape_image l ~tape_bytes ~spec ~seed:config.Minheap.seed () in
          let state = Run.new_state () in
          let s = Minheap.Search.start config spec in
          let rec loop probes =
            match Minheap.Search.probe_config s with
            | None -> (spec.Spec.name, Minheap.Search.result_words s, List.rev probes)
            | Some rc ->
                let m = run_cell l state { rc with Run.tape = Run.Tape_replay image } in
                Minheap.Search.advance s
                  ~completed:(match m with Some m -> Measurement.completed m | None -> false);
                loop (m :: probes)
          in
          loop []))
    (specs_of (minheap_order ~seed) minheap_scale)

(* ---------- transport micro-measure ---------- *)

(* Frame round trips over a socketpair, both ends in this process (no
   domain, no fork), with frames the size of the workload's mean result
   batch. *)
let transport_roundtrip_us ~frame_bytes =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ta = Transport.of_socket a and tb = Transport.of_socket b in
  Fun.protect
    ~finally:(fun () ->
      Transport.close ta;
      Transport.close tb)
    (fun () ->
      let payload = String.make (max 1 (min frame_bytes 65536)) 'r' in
      let scratch = Buffer.create 1024 in
      let n = 400 in
      let t0 = now () in
      for _ = 1 to n do
        Transport.send ~scratch ta ~tag:'R' payload;
        ignore (Transport.recv tb);
        Transport.send ~scratch tb ~tag:'R' payload;
        ignore (Transport.recv ta)
      done;
      (now () -. t0) /. float n *. 1e6)

(* ---------- metric output ---------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_number x.value)
              x.unit_)
          metrics))

let phase_names = List.init Event.num_phases (fun i -> Event.phase_name (Event.phase_of_index i))

let minheap_search_names = List.map (fun b -> "minheap.search_s." ^ b) minheap_benches

(* Per-layer metrics a workload does not exercise are printed as 0, so
   every traced run prints the same table. *)
let per_layer_defaults =
  [ m "minheap.search_s" "s" 0.0 ]
  @ List.map (fun n -> m n "s" 0.0) minheap_search_names
  @ [
      m "minheap.simulate_share" "ratio" 0.0;
      m "minheap.words" "words" 0.0;
      m "minheap.probes" "count" 0.0;
      m "planner.plan_ms" "ms" 0.0;
      m "planner.cells" "count" 0.0;
      m "cache_key.us_per_key" "us" 0.0;
      m "run.prepare_us_per_cell" "us" 0.0;
      m "run.finish_us_per_cell" "us" 0.0;
      m "engine.events" "count" 0.0;
      m "engine.ns_per_event" "ns" 0.0;
      m "mutator.steps" "count" 0.0;
      m "mutator.host_share" "ratio" 0.0;
      m "gc.steps" "count" 0.0;
      m "gc.host_share" "ratio" 0.0;
      m "gc.pause_host_share" "ratio" 0.0;
    ]
  @ List.map (fun p -> m ("gc.phase." ^ p ^ ".host_s") "s" 0.0) phase_names
  @ List.map (fun p -> m ("gc.phase." ^ p ^ ".host_share") "ratio" 0.0) phase_names
  @ [
      m "gc.pauses" "count" 0.0;
      m "gc.objects_marked" "count" 0.0;
      m "gc.words_copied" "words" 0.0;
      m "gc.stalls" "count" 0.0;
      m "heap.allocated_objects" "count" 0.0;
      m "heap.allocated_words" "words" 0.0;
      m "tape.generate_ms" "ms" 0.0;
      m "tape.decode_ms" "ms" 0.0;
      m "tape.bytes" "bytes" 0.0;
      m "fabric.busy_share" "ratio" 0.0;
      m "fabric.imbalance" "ratio" 0.0;
      m "fabric.stolen_groups" "count" 0.0;
      m "fabric.requeued_cells" "count" 0.0;
      m "fabric.parent_cells" "count" 0.0;
      m "fabric.worker_deaths" "count" 0.0;
      m "transport.roundtrip_us" "us" 0.0;
      m "store.hits" "count" 0.0;
      m "store.misses" "count" 0.0;
      m "store.tape_publish_ms" "ms" 0.0;
      m "store.tape_fetch_ms" "ms" 0.0;
      m "harness.plan_s" "s" 0.0;
      m "harness.execute_s" "s" 0.0;
      m "harness.reduce_s" "s" 0.0;
      m "harness.setup_self_s" "s" 0.0;
      m "harness.tape_self_s" "s" 0.0;
      m "harness.simulate_self_s" "s" 0.0;
      m "report.render_ms" "ms" 0.0;
      m "obs.trace_overhead" "ratio" 0.0;
      m "obs.ledger_coverage" "ratio" 0.0;
      m "obs.spans" "count" 0.0;
      m "hostgc.minor_words_per_cell" "words" 0.0;
      m "hostgc.promoted_words_per_cell" "words" 0.0;
      m "hostgc.major_collections" "count" 0.0;
    ]

(* Times that only some workloads measure are printed in the table but
   left out of the JSON result, where a time that reads 0 on every run of
   a workload would look unmeasured.  Their share-of-time counterparts
   (e.g. [gc.phase.<phase>.host_share]) are in the JSON. *)
let table_only =
  minheap_search_names
  @ List.map (fun p -> "gc.phase." ^ p ^ ".host_s") phase_names
  @ [
      "planner.plan_ms";
      "cache_key.us_per_key";
      "transport.roundtrip_us";
      "store.tape_publish_ms";
      "store.tape_fetch_ms";
      "harness.plan_s";
      "harness.execute_s";
      "harness.reduce_s";
      "harness.setup_self_s";
      "harness.tape_self_s";
      "harness.simulate_self_s";
      "report.render_ms";
    ]

(* Fill the defaults with measured values, keeping the default order. *)
let merge_per_layer measured =
  List.map
    (fun d ->
      match List.find_opt (fun (n, _) -> n = d.name) measured with
      | Some (_, v) -> { d with value = v }
      | None -> d)
    per_layer_defaults

let ledger_metrics t ~wall ~cells ~(ms : Measurement.t option list) ~tape_bytes =
  let self = Ledger.self_s t in
  let per_cell v = if cells > 0 then v /. float cells else 0.0 in
  let share v = if wall > 0.0 then v /. wall else 0.0 in
  let covered =
    List.fold_left (fun acc (name, s) -> if name = "walk" then acc else acc +. s) 0.0
      (Ledger.layers t)
  in
  let gc_s = Ledger.kind_s t Event.gc_worker_kind in
  let sum f = List.fold_left (fun acc m -> match m with Some m -> acc +. float (f m) | None -> acc) 0.0 ms in
  let engine_total = self "engine" +. self "mutator" +. self "gc" in
  let events = Ledger.spine_events t in
  [
    ("run.prepare_us_per_cell", per_cell (self "run.prepare") *. 1e6);
    ("run.finish_us_per_cell", per_cell (self "run.finish") *. 1e6);
    ("cache_key.us_per_key", per_cell (self "cache_key") *. 1e6);
    ("planner.plan_ms", self "planner.plan" *. 1e3);
    ("engine.events", float events);
    ("engine.ns_per_event", if events > 0 then engine_total /. float events *. 1e9 else 0.0);
    ("mutator.steps", float (Ledger.kind_steps t Event.mutator_kind));
    ("mutator.host_share", share (Ledger.kind_s t Event.mutator_kind));
    ("gc.steps", float (Ledger.kind_steps t Event.gc_worker_kind));
    ("gc.host_share", share gc_s);
    ("gc.pause_host_share", if gc_s > 0.0 then Ledger.pause_gc_s t /. gc_s else 0.0);
  ]
  @ List.mapi (fun i p -> ("gc.phase." ^ p ^ ".host_s", Ledger.phase_s t i)) phase_names
  @ List.mapi
      (fun i p ->
        ("gc.phase." ^ p ^ ".host_share", if gc_s > 0.0 then Ledger.phase_s t i /. gc_s else 0.0))
      phase_names
  @ [
      ("gc.pauses", sum Measurement.pause_count);
      ("gc.objects_marked", sum (fun m -> m.Measurement.gc_stats.Gcr_gcs.Gc_types.objects_marked));
      ("gc.words_copied", sum (fun m -> m.Measurement.gc_stats.Gcr_gcs.Gc_types.words_copied));
      ("gc.stalls", sum (fun m -> m.Measurement.gc_stats.Gcr_gcs.Gc_types.stalls));
      ("heap.allocated_objects", sum (fun m -> m.Measurement.allocated_objects));
      ("heap.allocated_words", sum (fun m -> m.Measurement.allocated_words));
      ("tape.generate_ms", self "tape.generate" *. 1e3);
      ("tape.decode_ms", self "tape.decode" *. 1e3);
      ("tape.bytes", float tape_bytes);
      ("store.tape_publish_ms", self "store.tape_publish" *. 1e3);
      ("store.tape_fetch_ms", self "store.tape_fetch" *. 1e3);
      ("report.render_ms", self "report.render" *. 1e3);
      ("obs.ledger_coverage", share covered);
      ("obs.spans", float (Ledger.spans t));
    ]

let write_and_check_trace t ~workload =
  let path = Filename.concat (Filename.dirname !work_root) ("trace-" ^ workload ^ ".json") in
  Ledger.write_trace t path;
  match Perfetto.validate_file path with
  | Ok _ -> true
  | Error e ->
      Printf.eprintf "[perfbench] span file %s rejected: %s\n%!" path e;
      false

(* ---------- workload drivers ---------- *)

let setup_reps = 3

let run_campaign_workload shape ~workload ~seed ~seconds ~trace =
  let ck = checker ~workload ~seed in
  let setups = List.init setup_reps (fun _ -> resolve_minheaps shape ~seed) in
  let budget = if trace then seconds /. 2.0 else seconds in
  (* Each repetition is checked as it completes; only the last campaign is
     kept (for the traced run's report), so peak RSS does not grow with
     the repetition count. *)
  let plan = ref None and last = ref None and mcycles = ref 0.0 in
  let reps =
    repeat ~seconds:budget ~min_reps:3 (fun _ ->
        last := None;
        let campaign, report, rep = campaign_rep shape ~seed in
        let plan =
          match !plan with
          | Some p -> p
          | None ->
              let p =
                plan_for shape ~seed ~minheap:(fun ~bench ->
                    Harness.minheap_words campaign ~bench)
              in
              plan := Some p;
              p
        in
        let ms = plan_measurements campaign plan in
        check_items ck "cells" (List.map (Option.map digest_measurement) ms);
        Option.iter (check_text ck "report") report;
        mcycles := sim_mcycles ms;
        last := Some campaign;
        rep)
  in
  let plan = Option.get !plan and last = Option.get !last in
  let cells = Planner.n_cells plan in
  Printf.printf "work: %d cells, %.1f simulated Mcycles\n" cells !mcycles;
  let med f = median (List.map f reps) in
  (* rates use the execute phase, scaled like the wall time *)
  let execute_s = med (fun r -> r.summary.Harness.execute_s *. r.timing.speed) in
  let wall = med (fun r -> scaled_wall r.timing) in
  Printf.printf "timing: %d repetitions, raw wall median %.4fs, host speed median %.3f\n"
    (List.length reps) (med (fun r -> r.timing.wall)) (med (fun r -> r.timing.speed));
  let end_to_end =
    [
      m "wall_s" "s" wall;
      m "cells_per_s" "1/s" (float cells /. execute_s);
      m "sim_mcycles_per_s" "Mcycles/s" (!mcycles /. execute_s);
      m "cpu_s" "s" (med (fun r -> scaled_cpu r.timing));
      m "peak_rss_mb" "MB" (max_rss (fun r -> r.rss_mb) reps);
      m "setup_s" "s" (median (List.map scaled_wall setups));
    ]
  in
  let per_layer =
    if not trace then []
    else begin
      let s f = med (fun r -> f r.summary) in
      let summary = Harness.summary last in
      let fabric_metrics =
        match shape.workers with
        | None -> []
        | Some w ->
            let per = Array.to_list summary.Harness.per_worker |> List.map float in
            let mean = List.fold_left ( +. ) 0.0 per /. float (max 1 (List.length per)) in
            [
              ( "fabric.busy_share",
                s (fun x ->
                    (x.Harness.setup_s +. x.Harness.tape_s +. x.Harness.simulate_s)
                    /. (float w *. x.Harness.execute_s)) );
              ("fabric.imbalance", if mean > 0.0 then List.fold_left max 0.0 per /. mean else 0.0);
              ("fabric.stolen_groups", float summary.Harness.stolen_groups);
              ("fabric.requeued_cells", float summary.Harness.reassigned_cells);
              ("fabric.parent_cells", float summary.Harness.parent_cells);
              ("fabric.worker_deaths", float summary.Harness.worker_deaths);
              ("store.hits", float summary.Harness.cache_hits);
              ("store.misses", float summary.Harness.cache_misses);
              ( "transport.roundtrip_us",
                let batch =
                  String.length
                    (Marshal.to_string (plan_measurements last plan) [])
                  / max 1 (List.length (Planner.groups plan))
                in
                transport_roundtrip_us ~frame_bytes:batch );
            ]
      in
      let harness_metrics =
        [
          ("harness.plan_s", s (fun x -> x.Harness.plan_s));
          ("harness.execute_s", s (fun x -> x.Harness.execute_s));
          ("harness.reduce_s", s (fun x -> x.Harness.reduce_s));
          ("harness.setup_self_s", s (fun x -> x.Harness.setup_s));
          ("harness.tape_self_s", s (fun x -> x.Harness.tape_s));
          ("harness.simulate_self_s", s (fun x -> x.Harness.simulate_s));
          ("hostgc.minor_words_per_cell", med (fun r -> r.host_gc.minor_words) /. float cells);
          ( "hostgc.promoted_words_per_cell",
            med (fun r -> r.host_gc.promoted_words) /. float cells );
          ("hostgc.major_collections", med (fun r -> r.host_gc.major_collections));
          ("planner.cells", float cells);
          (* set-up is the campaign's cold min-heap searches *)
          ("minheap.search_s", median (List.map scaled_wall setups));
        ]
      in
      (* the traced walk: same plan, same tapes, same report *)
      let t = Ledger.create () in
      let l = Some t in
      let walk, traced =
        with_fresh_dir (fun dir ->
            Gc.compact ();
            measure (fun () ->
              Ledger.span l "walk" (fun () ->
                  let walk =
                    campaign_walk l shape ~seed ~store_dir:(Filename.concat dir "store")
                  in
                  if shape.render then
                    check_text ck "report"
                      (Ledger.span l "report.render" (fun () ->
                           capture_stdout (Filename.concat dir "report.txt") (fun () ->
                               render_all last)));
                  walk)))
      in
      check_items ck "cells" (List.map (Option.map digest_measurement) walk.w_cells);
      if not (write_and_check_trace t ~workload) then ck.failed <- ck.failed + 1;
      ck.attempted <- ck.attempted + 1;
      fabric_metrics @ harness_metrics
      @ ledger_metrics t ~wall:traced.wall ~cells:walk.w_plan_cells ~ms:walk.w_cells
          ~tape_bytes:walk.w_tape_bytes
      @ [ ("obs.trace_overhead", scaled_wall traced /. wall) ]
    end
  in
  (ck, end_to_end, per_layer)

let run_minheap_workload ~seed ~seconds ~trace =
  let workload = "minheap" in
  let ck = checker ~workload ~seed in
  (* a warm-up takes about 20 ms, so take more of them *)
  let setups = List.init (4 * setup_reps) (fun _ -> minheap_warmup ~seed) in
  let budget = if trace then seconds /. 2.0 else seconds in
  let reps = repeat ~seconds:budget ~min_reps:3 (fun _ -> minheap_rep ~seed) in
  (* The oracle: the search state machine driven probe by probe must land
     on the words [Minheap.find] returned, and its probe results are
     checked against the pins. *)
  let t = Ledger.create () in
  let l = if trace then Some t else None in
  let walk, walk_timing =
    with_fresh_dir (fun _ ->
        Gc.compact ();
        measure (fun () -> Ledger.span l "walk" (fun () -> minheap_walk l ~seed)))
  in
  let probes = List.concat_map (fun (_, _, ps) -> ps) walk in
  let n_probes = List.length probes in
  let walk_words = List.map (fun (_, w, _) -> Option.value ~default:0 w) walk in
  check_items ck "cells" (List.map (Option.map digest_measurement) probes);
  List.iter
    (fun r ->
      let found = List.map (fun s -> s.s_words) r.searches in
      check_items ck "words" (List.map (fun w -> Some (short_digest (string_of_int w))) found);
      ck.attempted <- ck.attempted + 1;
      if found <> walk_words then begin
        Printf.eprintf "[perfbench] Minheap.find disagrees with the search walk\n%!";
        ck.failed <- ck.failed + 1
      end)
    reps;
  let med f = median (List.map f reps) in
  let wall = med (fun r -> scaled_wall r.m_timing) in
  Printf.printf "timing: %d repetitions, raw wall median %.4fs, host speed median %.3f\n"
    (List.length reps) (med (fun r -> r.m_timing.wall)) (med (fun r -> r.m_timing.speed));
  let end_to_end =
    [
      m "wall_s" "s" wall;
      m "cells_per_s" "1/s" (float n_probes /. wall);
      m "sim_mcycles_per_s" "Mcycles/s" (sim_mcycles probes /. wall);
      m "cpu_s" "s" (med (fun r -> scaled_cpu r.m_timing));
      m "peak_rss_mb" "MB" (max_rss (fun r -> r.m_rss_mb) reps);
      m "setup_s" "s" (median (List.map scaled_wall setups));
    ]
  in
  let per_layer =
    if not trace then []
    else begin
      if not (write_and_check_trace t ~workload) then ck.failed <- ck.failed + 1;
      ck.attempted <- ck.attempted + 1;
      let per_bench =
        List.map
          (fun b ->
            ( "minheap.search_s." ^ b,
              med (fun r ->
                  scaled_wall (List.find (fun s -> s.s_bench = b) r.searches).s_timing) ))
          minheap_benches
      in
      per_bench
      @ [
          ("minheap.search_s", wall);
          ("minheap.simulate_share", med (fun r -> r.simulate_s /. r.m_timing.wall));
          ("minheap.words", float (List.fold_left ( + ) 0 walk_words));
          ("minheap.probes", float n_probes);
          ("hostgc.minor_words_per_cell", med (fun r -> r.m_host_gc.minor_words) /. float n_probes);
          ( "hostgc.promoted_words_per_cell",
            med (fun r -> r.m_host_gc.promoted_words) /. float n_probes );
          ("hostgc.major_collections", med (fun r -> r.m_host_gc.major_collections));
        ]
      @ ledger_metrics t ~wall:walk_timing.wall ~cells:n_probes ~ms:probes ~tape_bytes:0
      @ [ ("obs.trace_overhead", scaled_wall walk_timing /. wall) ]
    end
  in
  (ck, end_to_end, per_layer)

(* ---------- entry ---------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload artefact|minheap|fabric --seed N --seconds S --trace 0|1 [--pin]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let pin = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:10.0 (float_of_string_opt s); parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--pin" :: rest -> pin := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload [ "artefact"; "minheap"; "fabric" ]) then usage ();
  (match
     List.find_opt
       (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "GCR_")
       (Array.to_list (Unix.environment ()))
   with
  | Some kv ->
      Printf.eprintf "perfbench: refusing to run with %s set\n" kv;
      exit 2
  | None -> ());
  let root = Filename.concat (Sys.getcwd ()) ".perfbench-work" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* a run that was killed leaves its directory behind; remove those *)
  Array.iter
    (fun e ->
      match Scanf.sscanf_opt e "run-%d%!" Fun.id with
      | Some pid when (try Unix.kill pid 0; false with Unix.Unix_error _ -> true) ->
          rm_rf (Filename.concat root e)
      | _ -> ())
    (Sys.readdir root);
  work_root := Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ()));
  rm_rf !work_root;
  Unix.mkdir !work_root 0o700;
  Filename.set_temp_dir_name !work_root;
  Printf.printf
    "host: nproc=%d ocaml=%s commit=%s loadavg_1m=%.2f workload=%s seed=%d seconds=%g trace=%b\n%!"
    (nproc ()) Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT"))
    (loadavg_1m ()) !workload seed !seconds !trace;
  let ck, end_to_end, per_layer =
    Fun.protect
      ~finally:(fun () -> rm_rf !work_root)
      (fun () ->
        match !workload with
        | "artefact" ->
            run_campaign_workload artefact ~workload:"artefact" ~seed ~seconds:!seconds
              ~trace:!trace
        | "fabric" ->
            run_campaign_workload fabric ~workload:"fabric" ~seed ~seconds:!seconds
              ~trace:!trace
        | _ -> run_minheap_workload ~seed ~seconds:!seconds ~trace:!trace)
  in
  if !pin then
    Hashtbl.iter
      (fun field value -> Printf.printf "%s\t%d\t%s\t%s\n" ck.workload seed field value)
      ck.seen
  else begin
    let error_rate =
      if ck.attempted > 0 then float ck.failed /. float ck.attempted else 1.0
    in
    Printf.printf "check: %s, error_rate=%g (%d of %d failed)\n"
      (if ck.pinned then "pinned seed" else "unpinned seed, repetitions checked against each other")
      error_rate ck.failed ck.attempted;
    Printf.printf "  %-34s %16.6f %s\n" "error_rate" error_rate "ratio";
    let print_table = List.iter (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit_) in
    print_table end_to_end;
    let metrics =
      if !trace then begin
        let per_layer = merge_per_layer per_layer in
        print_table per_layer;
        List.filter (fun x -> not (List.mem x.name table_only)) per_layer
      end
      else end_to_end
    in
    print_result ~correct:(ck.failed = 0) ~attempted:(max 1 ck.attempted) ~failed:ck.failed
      metrics
  end
