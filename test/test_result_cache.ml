(* Cache behaviour: cold populates, warm replays without executing,
   corruption is detected and repaired, closures are never cached, and a
   damaged log reads as a miss or as the measurement stored for that
   config, never as another one. *)

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

(* The directory's result logs. *)
let logs dir =
  if Sys.file_exists dir then
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> Filename.check_suffix f ".log")
    |> List.sort compare
  else []

let key config = Option.get (Result_cache.key config)

(* A handle that has read nothing yet, as a fresh process would open. *)
let reopen cache = Result_cache.create ~dir:(Result_cache.dir cache)

let read path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let write path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

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
  check Alcotest.int "cold run creates one log" 1 (List.length (logs (Result_cache.dir cache)));
  let m2, warm = counting_executes (fun () -> Pool.execute ~cache (tiny_config 11)) in
  check Alcotest.int "warm run executes nothing" 0 warm;
  check Alcotest.bool "warm measurement bit-identical" true (m1 = m2);
  let m3, reread =
    counting_executes (fun () -> Pool.execute ~cache:(reopen cache) (tiny_config 11))
  in
  check Alcotest.int "a fresh handle replays from the log" 0 reread;
  check Alcotest.bool "replayed measurement bit-identical" true (m1 = m3);
  (* a different seed is a different configuration *)
  let _, miss = counting_executes (fun () -> Pool.execute ~cache (tiny_config 12)) in
  check Alcotest.int "other config is a miss" 1 miss;
  check Alcotest.int "the second store appends to the same log" 1
    (List.length (logs (Result_cache.dir cache)))

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
  check Alcotest.bool "cold campaign populates the cache" true (logs dir <> []);
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

let only_log cache =
  match logs (Result_cache.dir cache) with
  | [ log ] -> Filename.concat (Result_cache.dir cache) log
  | other -> Alcotest.fail (Printf.sprintf "expected one log, got %d" (List.length other))

(* Each check opens a fresh handle, as the next campaign's process
   would: a damaged record must read as a miss there, the re-run must
   append a good one, and the handle after that must hit. *)
let test_corrupted_entries_discarded () =
  let cache = Result_cache.create ~dir:(fresh_dir ()) in
  let config = tiny_config 21 in
  let m1, _ = counting_executes (fun () -> Pool.execute ~cache config) in
  (* a torn log: the magic and the record are gone *)
  write (only_log cache) "torn";
  let m2, reran = counting_executes (fun () -> Pool.execute ~cache:(reopen cache) config) in
  check Alcotest.int "truncated log is re-executed" 1 reran;
  check Alcotest.bool "re-execution matches the original" true (m1 = m2);
  (* the re-run healed the cache *)
  let _, healed = counting_executes (fun () -> Pool.execute ~cache:(reopen cache) config) in
  check Alcotest.int "healed entry hits" 0 healed;
  (* a well-formed record whose header names this config but whose body
     is another config's (a stale or colliding digest) is equally
     untrusted: the header's key digest is the 16 bytes after the
     one-line magic *)
  let forged = Result_cache.create ~dir:(fresh_dir ()) in
  let _ = Pool.execute ~cache:forged (tiny_config 22) in
  let log = only_log forged in
  let bytes = Bytes.of_string (read log) in
  let magic_len = Bytes.index bytes '\n' + 1 in
  Bytes.blit_string
    (Digest.string (Option.get (Gcr_sched.Cache_key.render config)))
    0 bytes magic_len 16;
  write log (Bytes.to_string bytes);
  let m3, mismatched = counting_executes (fun () -> Pool.execute ~cache:(reopen forged) config) in
  check Alcotest.int "digest/content mismatch is re-executed" 1 mismatched;
  check Alcotest.bool "mismatch re-execution matches the original" true (m1 = m3);
  let _, healed = counting_executes (fun () -> Pool.execute ~cache:(reopen forged) config) in
  check Alcotest.int "the forged record's config heals too" 0 healed

(* Two processes storing the same configurations in the same order — two
   identical campaigns sharing a cache directory, say.  The parent has
   already opened its log when it forks, so the child inherits that
   descriptor and the stamp counter: it must append to a log of its
   own, or the two would interleave records.  Each process reads every
   entry back as soon as it has stored it, and each looks up first, so
   its index also holds whatever of the other's log was complete then.
   Many large entries make the two writers overlap often. *)
let test_concurrent_processes_store () =
  let cache = Result_cache.create ~dir:(fresh_dir ()) in
  let m =
    { (Pool.execute (tiny_config 41)) with
      Measurement.outcome = Measurement.Failed (String.make 50_000 'x') }
  in
  Result_cache.store cache (key (tiny_config 41)) m;
  let configs = List.init 512 (fun i -> tiny_config (1000 + i)) in
  let store_all () =
    List.length
      (List.filter
         (fun c ->
           let k = key c in
           ignore (Result_cache.find cache k);
           Result_cache.store cache k m;
           Result_cache.find cache k <> Some m)
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
      let fresh = reopen cache in
      List.iter
        (fun c ->
          check Alcotest.bool
            (Printf.sprintf "entry for seed %d intact" c.Run.seed)
            true
            (Result_cache.find fresh (key c) = Some m))
        (tiny_config 41 :: configs);
      check Alcotest.int "one log per process" 2 (List.length (logs (Result_cache.dir cache)))

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
  check Alcotest.bool "closure config has no key" true (Result_cache.key custom = None);
  check Alcotest.bool "closure config never stored" true (logs (Result_cache.dir cache) = [])

(* A log of three records, damaged once: cut at any offset or one byte
   flipped.  A fresh handle over it must answer every stored config
   with a miss or that config's own measurement, answer an unstored
   config with a miss, and never raise. *)
let damage_fixture =
  lazy
    (let base = Pool.execute (tiny_config 61) in
     let stored =
       List.init 3 (fun i ->
           ( key (tiny_config (600 + i)),
             { base with Measurement.outcome = Measurement.Failed (Printf.sprintf "record %d" i) }
           ))
     in
     let cache = Result_cache.create ~dir:(fresh_dir ()) in
     List.iter (fun (k, m) -> Result_cache.store cache k m) stored;
     (stored, read (only_log cache), Result_cache.dir (Result_cache.create ~dir:(fresh_dir ()))))

(* Positions are drawn below 2^16 and taken modulo the log's length
   (about 15 KB), so the generator needs no fixture. *)
type damage = Cut of int | Flip of int * int

let print_damage = function
  | Cut n -> Printf.sprintf "cut at %d mod (length + 1)" n
  | Flip (pos, mask) -> Printf.sprintf "flip byte %d mod length with 0x%02x" pos mask

let damage_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Cut n) (int_bound 0xffff);
        map2 (fun pos mask -> Flip (pos, mask)) (int_bound 0xffff) (int_range 1 255);
      ])

let damaged log = function
  | Cut n -> String.sub log 0 (n mod (String.length log + 1))
  | Flip (pos, mask) ->
      let pos = pos mod String.length log in
      String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c) log

let prop_damaged_log_never_lies =
  QCheck.Test.make ~name:"a damaged log reads as a miss or the stored measurement" ~count:1000
    (QCheck.make ~print:print_damage damage_gen)
    (fun d ->
      let stored, log, dir = Lazy.force damage_fixture in
      write (Filename.concat dir "1-1.log") (damaged log d);
      let fresh = Result_cache.create ~dir in
      List.for_all
        (fun (k, m) ->
          match Result_cache.find fresh k with None -> true | Some found -> found = m)
        stored
      && Result_cache.find fresh (key (tiny_config 699)) = None)

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
    QCheck_alcotest.to_alcotest prop_damaged_log_never_lies;
  ]
