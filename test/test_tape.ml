(* Differential suite for workload tapes.

   The tape subsystem's contract is exact: replaying a generated
   decision stream must reproduce the live run bit for bit — same
   Measurement, same outcome — for every collector kind, including runs
   that abort or OOM, and regardless of how much of the stream the tape
   actually holds (replay falls over to the live PRNG continuation past
   the tape's end).  These properties are what let the campaign
   harness replay one tape across a whole (collector × heap) cell group
   without re-pinning the golden fingerprints. *)

module Registry = Gcr_gcs.Registry
module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Tape = Gcr_tape.Tape
module Tape_gen = Gcr_workloads.Tape_gen
module Decision_source = Gcr_workloads.Decision_source

let check = Alcotest.check

let every_kind = Registry.all @ Registry.experimental

(* Small runs; heap range reaches low enough to exercise OOM/degenerate
   outcomes so replay equivalence is tested on aborted runs too. *)
let tiny = Spec.scale (Suite.find_exn "jme") 0.05

type shape = {
  kind : Registry.kind;
  seed : int;
  packets : int;
  threads : int;
  heap_words : int;
}

let shape_gen =
  QCheck.Gen.(
    map
      (fun (kind, (seed, packets, threads, heap_words)) ->
        { kind; seed; packets; threads; heap_words })
      (pair (oneofl every_kind)
         (quad (int_range 0 10_000) (int_range 3 12) (int_range 1 2)
            (int_range 12_000 60_000))))

let print_shape s =
  Printf.sprintf "%s seed=%d packets=%d threads=%d heap=%d" (Registry.name s.kind)
    s.seed s.packets s.threads s.heap_words

let shape_arb = QCheck.make ~print:print_shape shape_gen

let spec_of_shape s =
  { tiny with Spec.packets_per_thread = s.packets; mutator_threads = s.threads }

let config_of_shape ?(tape = Run.Tape_off) s =
  { (Run.default_config ~spec:(spec_of_shape s) ~gc:s.kind ~heap_words:s.heap_words
       ~seed:s.seed)
    with
    Run.tape;
  }

(* ---- replay ≡ live, across the collector grid ---- *)

let prop_replay_bit_identical =
  QCheck.Test.make ~name:"replayed run == live run for every kind" ~count:60 shape_arb
    (fun s ->
      let spec = spec_of_shape s in
      let image = Tape_gen.image ~spec ~seed:s.seed in
      let live = Run.execute (config_of_shape s) in
      let replayed = Run.execute (config_of_shape ~tape:(Run.Tape_replay image) s) in
      live = replayed)

(* The RC collector keeps deferred per-object state across the whole run
   (increment/decrement buffers, pin rotation, backup-trace sessions);
   one deterministic case pins replay equivalence for it explicitly on a
   shape known to trigger pauses, evacuation, and the cycle trace. *)
let test_lxr_replay_deterministic () =
  let s = { kind = Registry.Lxr; seed = 17; packets = 12; threads = 2; heap_words = 3_000 } in
  let spec = spec_of_shape s in
  let image = Tape_gen.image ~spec ~seed:s.seed in
  let live = Run.execute (config_of_shape s) in
  check Alcotest.bool "lxr completes this shape" true (Measurement.completed live);
  let replayed = Run.execute (config_of_shape ~tape:(Run.Tape_replay image) s) in
  check Alcotest.bool "lxr replay is bit-identical" true (live = replayed)

(* ---- short tapes: replay must fall over to the exact live stream ---- *)

let truncate_tape tape keep =
  {
    tape with
    Tape.streams =
      Array.map
        (fun st ->
          let n = min keep (Array.length st.Tape.raw) in
          { st with Tape.raw = Array.sub st.Tape.raw 0 n })
        tape.Tape.streams;
  }

let prop_short_tape_still_identical =
  QCheck.Test.make
    ~name:"truncated tape (even empty) replays bit-identically via PRNG fallback"
    ~count:30
    (QCheck.pair shape_arb (QCheck.make QCheck.Gen.(int_range 0 50)))
    (fun (s, keep) ->
      let spec = spec_of_shape s in
      let tape = truncate_tape (Tape_gen.generate ~spec ~seed:s.seed) keep in
      let image = Decision_source.image_of_tape ~spec tape in
      let live = Run.execute (config_of_shape s) in
      let replayed = Run.execute (config_of_shape ~tape:(Run.Tape_replay image) s) in
      live = replayed)

(* ---- serialization ---- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string round-trips exactly" ~count:30 shape_arb
    (fun s ->
      let spec = spec_of_shape s in
      let tape = Tape_gen.generate ~spec ~seed:s.seed in
      match Tape.of_string (Tape.to_string tape) with
      | Error msg -> QCheck.Test.fail_reportf "round-trip rejected: %s" msg
      | Ok back -> back = tape && Tape.digest back = Tape.digest tape)

let small_tape () =
  let spec = { tiny with Spec.packets_per_thread = 3; mutator_threads = 1 } in
  Tape_gen.generate ~spec ~seed:5

let test_truncation_rejected () =
  let bytes = Tape.to_string (small_tape ()) in
  let n = String.length bytes in
  (* every strict prefix must be rejected, never parsed as a partial tape *)
  let step = max 1 (n / 97) in
  let i = ref 0 in
  while !i < n do
    (match Tape.of_string (String.sub bytes 0 !i) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d of %d bytes accepted" !i n);
    i := !i + step
  done

let test_corruption_rejected () =
  let bytes = Tape.to_string (small_tape ()) in
  let n = String.length bytes in
  let step = max 1 (n / 211) in
  let i = ref 0 in
  while !i < n do
    let corrupted = Bytes.of_string bytes in
    Bytes.set corrupted !i (Char.chr (Char.code (Bytes.get corrupted !i) lxor 0x40));
    (match Tape.of_string (Bytes.to_string corrupted) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flipping byte %d of %d went undetected" !i n);
    i := !i + step
  done

let test_file_roundtrip () =
  let tape = small_tape () in
  let path = Filename.temp_file "gcr_tape" ".tape" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tape.write_file tape ~path;
      match Tape.read_file path with
      | Error msg -> Alcotest.failf "read_file rejected its own write: %s" msg
      | Ok back -> check Alcotest.bool "file round-trip" true (back = tape))

(* ---- spec binding ---- *)

let test_spec_digest_mismatch_rejected () =
  let spec = { tiny with Spec.packets_per_thread = 3; mutator_threads = 1 } in
  let tape = Tape_gen.generate ~spec ~seed:5 in
  let other = { spec with Spec.packets_per_thread = 4 } in
  check Alcotest.bool "digests differ" true (Spec.digest spec <> Spec.digest other);
  match Decision_source.image_of_tape ~spec:other tape with
  | (_ : Decision_source.image) ->
      Alcotest.fail "image_of_tape accepted a tape for a different spec"
  | exception Invalid_argument _ -> ()

(* ---- latency benchmarks: the arrival schedule rides the tape ---- *)

let test_latency_arrivals_replay () =
  let spec = Spec.scale (Suite.find_exn "lusearch") 0.02 in
  let spec = { spec with Spec.mutator_threads = 2; packets_per_thread = 6 } in
  let tape = Tape_gen.generate ~spec ~seed:3 in
  check Alcotest.bool "latency benchmark records arrivals" true
    (Array.length tape.Tape.arrivals > 0);
  let config heap_words tape_mode =
    {
      (Run.default_config ~spec ~gc:Registry.G1 ~heap_words ~seed:3) with
      Run.tape = tape_mode;
    }
  in
  let image = Decision_source.image_of_tape ~spec tape in
  List.iter
    (fun heap_words ->
      check Alcotest.bool
        (Printf.sprintf "latency replay bit-identical at %d words" heap_words)
        true
        (Run.execute (config heap_words Run.Tape_off)
        = Run.execute (config heap_words (Run.Tape_replay image))))
    [ 30_000; 60_000 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_replay_bit_identical;
    Alcotest.test_case "lxr replay deterministic" `Quick test_lxr_replay_deterministic;
    QCheck_alcotest.to_alcotest prop_short_tape_still_identical;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "corruption rejected" `Quick test_corruption_rejected;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "spec digest mismatch rejected" `Quick
      test_spec_digest_mismatch_rejected;
    Alcotest.test_case "latency arrivals replay" `Quick test_latency_arrivals_replay;
  ]
