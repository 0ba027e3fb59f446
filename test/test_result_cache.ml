(* Cache behaviour: cold populates, warm replays without executing,
   corruption is detected and repaired, closures are never cached. *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Harness = Gcr_core.Harness
module Metrics = Gcr_core.Metrics
module Minheap = Gcr_core.Minheap
module Pool = Gcr_sched.Pool
module Result_cache = Gcr_sched.Result_cache

let check = Alcotest.check

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gcr-result-cache-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (* stale leftovers from a killed run would fake warm hits *)
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    dir

let entries dir =
  if Sys.file_exists dir then
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".run")
  else []

(* Count fresh Run.execute calls under [f] via the scheduler hook. *)
let counting_executes f =
  let count = ref 0 in
  let saved = !Pool.on_execute in
  Pool.on_execute := (fun _ -> incr count);
  let result = Fun.protect ~finally:(fun () -> Pool.on_execute := saved) f in
  (result, !count)

let tiny = Spec.scale (Suite.find_exn "jme") 0.1

let tiny_config seed =
  Run.default_config ~spec:tiny ~gc:Registry.Serial ~heap_words:40_000 ~seed

let test_cold_then_warm_execute_counts () =
  let cache = Result_cache.create ~dir:(fresh_dir ()) in
  let m1, cold = counting_executes (fun () -> Pool.execute ~cache (tiny_config 11)) in
  check Alcotest.int "cold run executes" 1 cold;
  check Alcotest.int "cold run populates the cache" 1 (List.length (entries (Result_cache.dir cache)));
  let m2, warm = counting_executes (fun () -> Pool.execute ~cache (tiny_config 11)) in
  check Alcotest.int "warm run executes nothing" 0 warm;
  check Alcotest.bool "warm measurement bit-identical" true (m1 = m2);
  (* a different seed is a different configuration *)
  let _, miss = counting_executes (fun () -> Pool.execute ~cache (tiny_config 12)) in
  check Alcotest.int "other config is a miss" 1 miss

let campaign_config ~cache_dir =
  {
    (Harness.default_config ()) with
    Harness.invocations = 1;
    scale = 0.1;
    heap_factors = [ 1.9 ];
    log_progress = false;
    cache_dir = Some cache_dir;
  }

(* The memo is cleared before each campaign, as a fresh process starts
   without it: the cache directory alone must serve the min-heap probes
   as well as the grid cells. *)
let test_warm_campaign_executes_zero_runs () =
  let dir = fresh_dir () in
  let benchmarks = [ Suite.find_exn "h2" ] in
  let run () =
    Minheap.clear_memo ();
    Harness.run_campaign (campaign_config ~cache_dir:dir) ~benchmarks
      ~gcs:Registry.production
  in
  let cold_campaign, cold = counting_executes run in
  check Alcotest.bool "cold campaign executes runs" true (cold > 0);
  check Alcotest.bool "cold campaign populates the cache" true (entries dir <> []);
  let warm_campaign, warm = counting_executes run in
  check Alcotest.int "warm campaign executes zero runs" 0 warm;
  (* ... and still reports the same campaign *)
  check Alcotest.int "warm minheap identical"
    (Harness.minheap_words cold_campaign ~bench:"h2")
    (Harness.minheap_words warm_campaign ~bench:"h2");
  List.iter
    (fun gc ->
      check Alcotest.bool
        (Printf.sprintf "warm runs identical (%s)" (Registry.name gc))
        true
        (Harness.runs cold_campaign ~bench:"h2" ~gc ~factor:1.9
        = Harness.runs warm_campaign ~bench:"h2" ~gc ~factor:1.9))
    (Registry.Epsilon :: Registry.production);
  check Alcotest.bool "warm geomean identical" true
    (Harness.lbo_geomean cold_campaign Metrics.Cpu_cycles ~benches:[ "h2" ]
       ~gc:Registry.G1 ~factor:1.9
    = Harness.lbo_geomean warm_campaign Metrics.Cpu_cycles ~benches:[ "h2" ]
        ~gc:Registry.G1 ~factor:1.9)

let clobber_entry dir ~bytes =
  match entries dir with
  | [ entry ] ->
      let path = Filename.concat dir entry in
      let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
      output_string oc bytes;
      close_out oc
  | other -> Alcotest.fail (Printf.sprintf "expected one cache entry, got %d" (List.length other))

let test_corrupted_entries_discarded () =
  let cache = Result_cache.create ~dir:(fresh_dir ()) in
  let config = tiny_config 21 in
  let m1, _ = counting_executes (fun () -> Pool.execute ~cache config) in
  (* truncated entry: unmarshalling fails mid-stream *)
  clobber_entry (Result_cache.dir cache) ~bytes:"torn";
  let m2, reran = counting_executes (fun () -> Pool.execute ~cache config) in
  check Alcotest.int "truncated entry is re-executed" 1 reran;
  check Alcotest.bool "re-execution matches the original" true (m1 = m2);
  (* the re-run healed the cache *)
  let _, healed = counting_executes (fun () -> Pool.execute ~cache config) in
  check Alcotest.int "healed entry hits" 0 healed;
  (* a well-formed entry whose stored rendering belongs to a different
     config (stale digest, renamed file) is equally untrusted *)
  let other_cache = Result_cache.create ~dir:(fresh_dir ()) in
  let _ = Pool.execute ~cache:other_cache (tiny_config 22) in
  (match (entries (Result_cache.dir cache), entries (Result_cache.dir other_cache)) with
  | [ mine ], [ theirs ] ->
      let read path =
        let ic = open_in_bin path in
        let payload = really_input_string ic (in_channel_length ic) in
        close_in ic;
        payload
      in
      clobber_entry (Result_cache.dir cache) ~bytes:(read (Filename.concat (Result_cache.dir other_cache) theirs));
      ignore mine
  | _ -> Alcotest.fail "expected one entry per cache");
  let m3, mismatched = counting_executes (fun () -> Pool.execute ~cache config) in
  check Alcotest.int "digest/content mismatch is re-executed" 1 mismatched;
  check Alcotest.bool "mismatch re-execution matches the original" true (m1 = m3)

(* Two processes storing the same configurations in the same order — two
   identical campaigns sharing a cache directory, say.  A forked child
   inherits the parent's temp-file counter, so temp names must still
   differ between the two, or one writer truncates the file the other is
   about to publish.  Each process reads every entry back as soon as it
   has stored it: a reader that meets a torn entry deletes it.  Many
   large entries make the two writers overlap often. *)
let test_concurrent_processes_store () =
  let cache = Result_cache.create ~dir:(fresh_dir ()) in
  let m =
    { (Pool.execute (tiny_config 41)) with
      Measurement.outcome = Measurement.Failed (String.make 50_000 'x') }
  in
  let configs = List.init 512 (fun i -> tiny_config (1000 + i)) in
  let store_all () =
    List.length
      (List.filter
         (fun c ->
           Result_cache.store cache c m;
           Result_cache.find cache c <> Some m)
         configs)
  in
  let release_r, release_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close release_w;
      ignore (Unix.read release_r (Bytes.create 1) 0 1);
      Unix._exit (match store_all () with misses -> min misses 100 | exception _ -> 101)
  | pid ->
      Unix.close release_r;
      ignore (Unix.write_substring release_w "x" 0 1);
      let misses = store_all () in
      Unix.close release_w;
      check Alcotest.int "parent read back every entry it stored" 0 misses;
      check Alcotest.bool "child read back every entry it stored" true
        (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
      List.iter
        (fun c ->
          check Alcotest.bool
            (Printf.sprintf "entry for seed %d intact" c.Run.seed)
            true
            (Result_cache.find cache c = Some m))
        configs;
      check Alcotest.int "no temp files left" (List.length configs)
        (Array.length (Sys.readdir (Result_cache.dir cache)))

let test_custom_collector_bypasses_cache () =
  let cache = Result_cache.create ~dir:(fresh_dir ()) in
  let custom =
    {
      (tiny_config 31) with
      Run.make_collector = Some (fun ctx -> Gcr_gcs.Epsilon.make ctx);
      gc = Registry.Epsilon;
    }
  in
  let _, first = counting_executes (fun () -> Pool.execute ~cache custom) in
  let _, second = counting_executes (fun () -> Pool.execute ~cache custom) in
  check Alcotest.int "closure config always executes (1st)" 1 first;
  check Alcotest.int "closure config always executes (2nd)" 1 second;
  check Alcotest.bool "closure config never stored" true
    (entries (Result_cache.dir cache) = [])

let suite =
  [
    Alcotest.test_case "cold populates, warm replays" `Quick test_cold_then_warm_execute_counts;
    Alcotest.test_case "warm campaign executes zero runs" `Quick
      test_warm_campaign_executes_zero_runs;
    Alcotest.test_case "corrupted entries discarded" `Quick test_corrupted_entries_discarded;
    Alcotest.test_case "concurrent processes store intact entries" `Quick
      test_concurrent_processes_store;
    Alcotest.test_case "custom collector bypasses cache" `Quick
      test_custom_collector_bypasses_cache;
  ]
