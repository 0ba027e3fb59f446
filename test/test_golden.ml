(* Golden determinism test: one fixed-seed lusearch run per collector, with
   the complete measurement fingerprint checked against values recorded from
   the pre-optimisation simulator.  Hot-path rewrites (event queue, object
   table, engine step plumbing) must keep simulation results bit-identical;
   any silent behavioural change fails here loudly.

   Measurements are order-insensitive sums, so each run also folds its
   whole spine event stream, in order, into [event_digest]: an equal-time
   reordering of events fails here even when every sum still matches.  A
   short thrashing min-heap probe pins the order of GC worker phases,
   where most events are zero-cycle resumes and termination barriers.

   To re-record after an *intentional* simulation change:
     GCR_GOLDEN_RECORD=1 dune exec test/test_main.exe -- test golden -e
   and paste the printed table over [expected] below. *)

module Suite = Gcr_workloads.Suite
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run
module Measurement = Gcr_runtime.Measurement
module Registry = Gcr_gcs.Registry
module Gc_types = Gcr_gcs.Gc_types
module Engine = Gcr_engine.Engine
module Obs = Gcr_obs.Obs
module Harness = Gcr_core.Harness
module Minheap = Gcr_core.Minheap

let spec = Spec.scale (Suite.find_exn "lusearch") 0.1

let heap_words = 36_864 (* 144 regions of 256 words: ~3x the live estimate *)

let seed = 42

type fingerprint = {
  gc : string;
  outcome : string;
  wall_total : int;
  wall_stw : int;
  cycles_mutator : int;
  cycles_gc : int;
  cycles_gc_stw : int;
  pause_count : int;
  allocated_words : int;
  allocated_objects : int;
  collections : int;
  event_digest : int;
}

(* An order-sensitive fold (FNV-1a over whole ints, basis truncated to 63
   bits) of every spine event's five ints, attached through [on_engine]
   so it sees the run from its first event. *)
let with_event_digest run =
  let digest = ref 0x4bf29ce484222325 in
  let fold x = digest := (!digest lxor x) * 0x100000001b3 in
  let on_engine engine =
    Obs.subscribe (Engine.obs engine)
      {
        Obs.sub_name = "event-digest";
        on_event =
          (fun ~time ~code ~a ~b ~c ->
            fold time;
            fold code;
            fold a;
            fold b;
            fold c);
      }
  in
  let m = run ~on_engine in
  (m, !digest)

let fingerprint_of (m : Measurement.t) (stats : Gc_types.stats) ~event_digest =
  {
    gc = m.Measurement.gc;
    outcome =
      (match m.Measurement.outcome with
      | Measurement.Completed -> "ok"
      | Measurement.Failed reason -> "failed: " ^ reason);
    wall_total = m.Measurement.wall_total;
    wall_stw = m.Measurement.wall_stw;
    cycles_mutator = m.Measurement.cycles_mutator;
    cycles_gc = m.Measurement.cycles_gc;
    cycles_gc_stw = m.Measurement.cycles_gc_stw;
    pause_count = Measurement.pause_count m;
    allocated_words = m.Measurement.allocated_words;
    allocated_objects = m.Measurement.allocated_objects;
    collections = stats.Gc_types.collections;
    event_digest;
  }

let run gc =
  let m, event_digest =
    with_event_digest (fun ~on_engine ->
        Run.execute ~on_engine (Run.default_config ~spec ~gc ~heap_words ~seed))
  in
  fingerprint_of m m.Measurement.gc_stats ~event_digest

let collectors =
  [
    Registry.Epsilon;
    Registry.Serial;
    Registry.Parallel;
    Registry.G1;
    Registry.Shenandoah;
    Registry.Zgc;
    Registry.Shenandoah_gen;
    Registry.Lxr;
    Registry.Serial_pretenure;
  ]

(* Recorded from the seed simulator (pre hot-path rewrite); every field is an
   exact integer equality.  Do not edit casually: a diff here means the
   simulation itself changed.  The event digests were recorded with the
   engine's single-heap event queue, before its FIFO lane. *)
let expected : fingerprint list =
  [
    { gc = "Epsilon"; outcome = "ok"; wall_total = 5098553; wall_stw = 0;
      cycles_mutator = 81536905; cycles_gc = 0; cycles_gc_stw = 0;
      pause_count = 0; allocated_words = 519017; allocated_objects = 38418;
      collections = 0; event_digest = -806986675203098188 };
    { gc = "Serial"; outcome = "ok"; wall_total = 11715106; wall_stw = 2496634;
      cycles_mutator = 82767112; cycles_gc = 2496634; cycles_gc_stw = 2496634;
      pause_count = 98; allocated_words = 519184; allocated_objects = 38418;
      collections = 98; event_digest = 2827699268540351121 };
    { gc = "Parallel"; outcome = "ok"; wall_total = 10516333; wall_stw = 1297861;
      cycles_mutator = 82767112; cycles_gc = 7596634; cycles_gc_stw = 7596634;
      pause_count = 98; allocated_words = 519184; allocated_objects = 38418;
      collections = 98; event_digest = 2149037459496649275 };
    { gc = "G1"; outcome = "ok"; wall_total = 9521793; wall_stw = 1235607;
      cycles_mutator = 83299764; cycles_gc = 7745947; cycles_gc_stw = 7380199;
      pause_count = 85; allocated_words = 519026; allocated_objects = 38418;
      collections = 85; event_digest = 3134911724144853570 };
    { gc = "Shenandoah"; outcome = "ok"; wall_total = 18106099; wall_stw = 643062;
      cycles_mutator = 97909266; cycles_gc = 19923042; cycles_gc_stw = 1843444;
      pause_count = 169; allocated_words = 520489; allocated_objects = 38418;
      collections = 84; event_digest = -4536454224395043455 };
    { gc = "ZGC"; outcome = "ok"; wall_total = 9185490; wall_stw = 116840;
      cycles_mutator = 101573698; cycles_gc = 5124376; cycles_gc_stw = 168840;
      pause_count = 52; allocated_words = 514910; allocated_objects = 38418;
      collections = 26; event_digest = -3347554370085526851 };
    { gc = "GenShen"; outcome = "ok"; wall_total = 9979885; wall_stw = 966084;
      cycles_mutator = 92875024; cycles_gc = 5990001; cycles_gc_stw = 5603179;
      pause_count = 70; allocated_words = 519135; allocated_objects = 38418;
      collections = 72; event_digest = 4387693738245633640 };
    { gc = "LXR"; outcome = "ok"; wall_total = 11142029; wall_stw = 3017509;
      cycles_mutator = 83555302; cycles_gc = 3017509; cycles_gc_stw = 3017509;
      pause_count = 69; allocated_words = 518898; allocated_objects = 38418;
      collections = 69; event_digest = -3656207151880541425 };
    { gc = "SerialPT"; outcome = "ok"; wall_total = 9925889; wall_stw = 2182317;
      cycles_mutator = 82710309; cycles_gc = 2182317; cycles_gc_stw = 2182317;
      pause_count = 69; allocated_words = 519505; allocated_objects = 38418;
      collections = 69; event_digest = 515839155795538294 };
  ]

let print_fingerprint f =
  Printf.printf
    "    { gc = %S; outcome = %S; wall_total = %d; wall_stw = %d;\n\
    \      cycles_mutator = %d; cycles_gc = %d; cycles_gc_stw = %d;\n\
    \      pause_count = %d; allocated_words = %d; allocated_objects = %d;\n\
    \      collections = %d; event_digest = %d };\n"
    f.gc f.outcome f.wall_total f.wall_stw f.cycles_mutator f.cycles_gc
    f.cycles_gc_stw f.pause_count f.allocated_words f.allocated_objects
    f.collections f.event_digest

let check_one expected_f =
  let actual = run (Option.get (Registry.of_name expected_f.gc)) in
  Alcotest.(check string) (expected_f.gc ^ " outcome") expected_f.outcome actual.outcome;
  let field name e a = Alcotest.(check int) (expected_f.gc ^ " " ^ name) e a in
  field "wall_total" expected_f.wall_total actual.wall_total;
  field "wall_stw" expected_f.wall_stw actual.wall_stw;
  field "cycles_mutator" expected_f.cycles_mutator actual.cycles_mutator;
  field "cycles_gc" expected_f.cycles_gc actual.cycles_gc;
  field "cycles_gc_stw" expected_f.cycles_gc_stw actual.cycles_gc_stw;
  field "pause_count" expected_f.pause_count actual.pause_count;
  field "allocated_words" expected_f.allocated_words actual.allocated_words;
  field "allocated_objects" expected_f.allocated_objects actual.allocated_objects;
  field "collections" expected_f.collections actual.collections;
  field "event_digest" expected_f.event_digest actual.event_digest

let test_golden () =
  if Sys.getenv_opt "GCR_GOLDEN_RECORD" <> None then begin
    Printf.printf "let expected : fingerprint list =\n  [\n";
    List.iter (fun gc -> print_fingerprint (run gc)) collectors;
    Printf.printf "  ]\n%!"
  end
  else begin
    Alcotest.(check int)
      "golden table covers every collector" (List.length collectors)
      (List.length expected);
    List.iter check_one expected
  end

(* The jme floor probe of [gcr minheap --scale 0.02 --seed 7] (G1 on the
   campaign's scaled machine), cut to 200,000 engine events: about 2,200
   thrashing pauses, each three worker phases of resume, slice and
   termination steps. *)
let thrash_config () =
  let grid = { (Harness.default_config ()) with Harness.scale = 0.02; base_seed = 7 } in
  let search =
    Minheap.Search.start (Harness.minheap_config grid)
      (Gcr_workloads.Spec.scale (Suite.find_exn "jme") 0.02)
  in
  { (Option.get (Minheap.Search.probe_config search)) with Run.max_events = Some 200_000 }

(* Recorded with the engine's single-heap event queue, before its FIFO
   lane; print with GCR_GOLDEN_RECORD=1 as above. *)
let expected_thrash = (3840, 2209, -1364905515516900807)

let test_thrash_order () =
  let config = thrash_config () in
  let m, digest = with_event_digest (fun ~on_engine -> Run.execute ~on_engine config) in
  let actual = (config.Run.heap_words, Measurement.pause_count m, digest) in
  if Sys.getenv_opt "GCR_GOLDEN_RECORD" <> None then begin
    let w, p, d = actual in
    Printf.printf "let expected_thrash = (%d, %d, %d)\n%!" w p d
  end
  else
    Alcotest.(check (triple int int int))
      "floor heap, pauses and event digest" expected_thrash actual

let suite =
  [
    Alcotest.test_case "fixed-seed lusearch per collector" `Quick test_golden;
    Alcotest.test_case "thrashing probe event order" `Quick test_thrash_order;
  ]
