(* Engine: scheduling, accounting, safepoints, stalls, timers. *)

module Engine = Gcr_engine.Engine

let check = Alcotest.check

let run_ok engine =
  match Engine.run engine () with
  | Engine.All_mutators_finished -> ()
  | Engine.Aborted reason -> Alcotest.failf "aborted: %s" reason

(* A mutator that runs [n] steps of [cycles] each, then exits. *)
let simple_mutator engine ~name ~steps ~cycles =
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name in
  let rec loop remaining () =
    if remaining = 0 then Engine.exit_thread engine th
    else Engine.submit engine th ~cycles (loop (remaining - 1))
  in
  loop steps ();
  th

let test_single_thread_time () =
  let engine = Engine.create ~cpus:4 () in
  let th = simple_mutator engine ~name:"m" ~steps:10 ~cycles:100 in
  run_ok engine;
  check Alcotest.int "wall equals serial work" 1000 (Engine.now engine);
  check Alcotest.int "cycles recorded" 1000 (Engine.cycles_of_thread th)

let test_parallel_threads () =
  let engine = Engine.create ~cpus:4 () in
  let _ = List.init 4 (fun i ->
      simple_mutator engine ~name:(string_of_int i) ~steps:5 ~cycles:100)
  in
  run_ok engine;
  (* four threads, four cpus: perfectly parallel *)
  check Alcotest.int "wall is one thread's work" 500 (Engine.now engine);
  check Alcotest.int "total cycles" 2000 (Engine.cycles_of_kind engine Engine.Mutator)

let test_oversubscription () =
  let engine = Engine.create ~cpus:2 () in
  let _ = List.init 4 (fun i ->
      simple_mutator engine ~name:(string_of_int i) ~steps:5 ~cycles:100)
  in
  run_ok engine;
  (* 2000 cycles of work on 2 cpus *)
  check Alcotest.int "wall doubles" 1000 (Engine.now engine)

let test_cycle_conservation () =
  (* invariant: total cycles <= cpus * wall *)
  let engine = Engine.create ~cpus:3 () in
  let _ = List.init 7 (fun i ->
      simple_mutator engine ~name:(string_of_int i) ~steps:3 ~cycles:(50 + (i * 13)))
  in
  run_ok engine;
  let total = Engine.cycles_of_kind engine Engine.Mutator in
  check Alcotest.bool "conservation" true (total <= 3 * Engine.now engine)

let test_zero_cycle_step () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  Engine.submit engine th ~cycles:0 (fun () -> Engine.exit_thread engine th);
  run_ok engine;
  check Alcotest.int "no time" 0 (Engine.now engine)

let test_timer_fires () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  let fired_at = ref (-1) in
  Engine.at engine ~time:500 (fun () -> fired_at := Engine.now engine);
  Engine.submit engine th ~cycles:1000 (fun () -> Engine.exit_thread engine th);
  run_ok engine;
  check Alcotest.int "timer time" 500 !fired_at

let test_stall_no_cycles () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  Engine.submit engine th ~cycles:100 (fun () ->
      Engine.stall engine th ~cycles:400 (fun () ->
          Engine.submit engine th ~cycles:100 (fun () -> Engine.exit_thread engine th)));
  run_ok engine;
  check Alcotest.int "wall includes stall" 600 (Engine.now engine);
  check Alcotest.int "cycles exclude stall" 200 (Engine.cycles_of_thread th)

let test_stall_frees_cpu () =
  (* while one thread stalls, another uses the cpu *)
  let engine = Engine.create ~cpus:1 () in
  let a = Engine.spawn engine ~kind:Engine.Mutator ~name:"a" in
  let b = simple_mutator engine ~name:"b" ~steps:4 ~cycles:100 in
  ignore b;
  Engine.stall engine a ~cycles:400 (fun () ->
      Engine.submit engine a ~cycles:100 (fun () -> Engine.exit_thread engine a));
  run_ok engine;
  (* b runs 400 cycles during a's stall; then a runs 100 *)
  check Alcotest.int "wall" 500 (Engine.now engine)

let test_park_resume () =
  let engine = Engine.create ~cpus:1 () in
  let a = Engine.spawn engine ~kind:Engine.Mutator ~name:"a" in
  let b = Engine.spawn engine ~kind:Engine.Mutator ~name:"b" in
  Engine.submit engine a ~cycles:10 (fun () ->
      Engine.park engine a;
      (* b resumes a later *)
      Engine.submit engine b ~cycles:100 (fun () ->
          Engine.resume engine a (fun () -> Engine.exit_thread engine a);
          Engine.exit_thread engine b));
  run_ok engine;
  check Alcotest.int "wall" 110 (Engine.now engine)

let test_safepoint_protocol () =
  let engine = Engine.create ~cpus:4 () in
  let mutators =
    List.init 3 (fun i -> simple_mutator engine ~name:(string_of_int i) ~steps:20 ~cycles:100)
  in
  ignore mutators;
  let gc = Engine.spawn engine ~kind:Engine.Gc_worker ~name:"gc" in
  let pause_seen = ref false in
  Engine.at engine ~time:250 (fun () ->
      Engine.request_stop engine ~reason:"test" (fun () ->
          pause_seen := true;
          check Alcotest.bool "stw active in pause" true (Engine.stw_active engine);
          Engine.submit engine gc ~cycles:500 (fun () ->
              Engine.release_stop engine;
              Engine.park engine gc)));
  run_ok engine;
  check Alcotest.bool "pause happened" true !pause_seen;
  (match Engine.pauses engine with
  | [ p ] ->
      check Alcotest.string "reason" "test" p.Engine.reason;
      check Alcotest.int "duration" 500 p.Engine.duration;
      (* mutators were mid-step at the request; they park at step end *)
      check Alcotest.bool "pause after request" true (p.Engine.start >= 250)
  | pauses -> Alcotest.failf "expected one pause, got %d" (List.length pauses));
  check Alcotest.int "gc cycles attributed to stw" 500
    (Engine.cycles_stw_of_kind engine Engine.Gc_worker);
  (* wall accounting matches the pause log *)
  check Alcotest.int "wall_stw" 500 (Engine.wall_stw engine)

let test_mutators_stopped_during_pause () =
  let engine = Engine.create ~cpus:4 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  let during_pause = ref (-1) in
  let after_pause = ref (-1) in
  let rec loop n () =
    if n = 0 then Engine.exit_thread engine th
    else Engine.submit engine th ~cycles:100 (loop (n - 1))
  in
  loop 10 ();
  let gc = Engine.spawn engine ~kind:Engine.Gc_worker ~name:"gc" in
  Engine.at engine ~time:150 (fun () ->
      Engine.request_stop engine ~reason:"p" (fun () ->
          during_pause := Engine.cycles_of_thread th;
          Engine.submit engine gc ~cycles:1000 (fun () ->
              after_pause := Engine.cycles_of_thread th;
              Engine.release_stop engine;
              Engine.park engine gc)));
  run_ok engine;
  check Alcotest.int "no mutator cycles during pause" !during_pause !after_pause;
  check Alcotest.int "mutator finished afterwards" 1000 (Engine.cycles_of_thread th)

let test_abort () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  Engine.submit engine th ~cycles:100 (fun () -> Engine.abort engine ~reason:"boom");
  (match Engine.run engine () with
  | Engine.Aborted reason -> check Alcotest.string "reason" "boom" reason
  | Engine.All_mutators_finished -> Alcotest.fail "expected abort")

let test_deadlock_detection () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  Engine.submit engine th ~cycles:10 (fun () -> Engine.park engine th);
  (match Engine.run engine () with
  | Engine.Aborted reason ->
      check Alcotest.bool "deadlock reported" true
        (String.length reason >= 8 && String.sub reason 0 8 = "deadlock")
  | Engine.All_mutators_finished -> Alcotest.fail "expected deadlock")

let test_event_budget () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  let rec forever () = Engine.submit engine th ~cycles:1 forever in
  forever ();
  (match Engine.run engine ~max_events:100 () with
  | Engine.Aborted reason ->
      check Alcotest.string "budget" "event budget exhausted" reason
  | Engine.All_mutators_finished -> Alcotest.fail "expected budget abort")

let test_fifo_fairness () =
  (* With 1 cpu and 2 equal threads, work interleaves rather than one
     thread finishing first. *)
  let engine = Engine.create ~cpus:1 () in
  let order = ref [] in
  let mk name =
    let th = Engine.spawn engine ~kind:Engine.Mutator ~name in
    let rec loop n () =
      order := name :: !order;
      if n = 0 then Engine.exit_thread engine th
      else Engine.submit engine th ~cycles:10 (loop (n - 1))
    in
    loop 3 ()
  in
  mk "a";
  mk "b";
  run_ok engine;
  (* strict alternation: a b a b ... *)
  let observed = List.rev !order in
  check
    Alcotest.(list string)
    "round robin"
    [ "a"; "b"; "a"; "b"; "a"; "b"; "a"; "b" ]
    observed

let test_double_submit_rejected () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  Engine.submit engine th ~cycles:10 (fun () -> Engine.exit_thread engine th);
  Alcotest.check_raises "double submit"
    (Invalid_argument "Engine.submit: thread m is not idle") (fun () ->
      Engine.submit engine th ~cycles:10 ignore)

let test_after_rejects_negative () =
  let engine = Engine.create ~cpus:1 () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.after: negative cycles") (fun () ->
      Engine.after engine ~cycles:(-1) ignore);
  Alcotest.check_raises "absolute time in the past is still Engine.at's error"
    (Invalid_argument "Engine.at: time in the past") (fun () ->
      Engine.at engine ~time:(-1) ignore)

(* Timers and thread steps share one tie-break: at equal cycles, whichever
   was scheduled first runs first. *)
let test_timer_step_ties () =
  let order ~timer_first =
    let engine = Engine.create ~cpus:1 () in
    let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
    let log = ref [] in
    let note label = log := (Engine.now engine, label) :: !log in
    let timer () = note "timer" in
    (* [run] dispatches the step at cycle 0, so its completion event is
       queued after a timer set before the run and before one set from a
       timer at cycle 50 *)
    if timer_first then Engine.at engine ~time:100 timer
    else Engine.at engine ~time:50 (fun () -> Engine.at engine ~time:100 timer);
    Engine.submit engine th ~cycles:100 (fun () ->
        note "step";
        (* outlive the cycle-100 timer *)
        Engine.submit engine th ~cycles:1 (fun () -> Engine.exit_thread engine th));
    run_ok engine;
    List.rev !log
  in
  check
    Alcotest.(list (pair int string))
    "timer scheduled first runs first"
    [ (100, "timer"); (100, "step") ]
    (order ~timer_first:true);
  check
    Alcotest.(list (pair int string))
    "step scheduled first runs first"
    [ (100, "step"); (100, "timer") ]
    (order ~timer_first:false)

(* Steps, a stall, timers and a pause on three threads; returns the
   observed (cycle, label) order and the spine's fingerprint. *)
let scripted_run engine =
  let log = ref [] in
  let note label = log := (Engine.now engine, label) :: !log in
  let a = Engine.spawn engine ~kind:Engine.Mutator ~name:"a" in
  let b = Engine.spawn engine ~kind:Engine.Mutator ~name:"b" in
  let gc = Engine.spawn engine ~kind:Engine.Gc_worker ~name:"gc" in
  let rec loop th name n () =
    note name;
    if n = 0 then Engine.exit_thread engine th
    else if n mod 3 = 0 then Engine.stall engine th ~cycles:70 (loop th name (n - 1))
    else Engine.submit engine th ~cycles:(40 + n) (loop th name (n - 1))
  in
  loop a "a" 9 ();
  loop b "b" 7 ();
  Engine.after engine ~cycles:120 (fun () ->
      note "timer";
      Engine.request_stop engine ~reason:"scripted" (fun () ->
          note "pause";
          Engine.submit engine gc ~cycles:200 (fun () ->
              Engine.release_stop engine;
              Engine.park engine gc)));
  run_ok engine;
  (List.rev !log, Gcr_obs.Obs.fingerprint (Engine.obs engine) ~now:(Engine.now engine))

(* An engine aborted with a pending timer, queued and running steps and a
   stalled thread, then reset, must run like a fresh engine and never call
   an old continuation. *)
let test_reset_after_abort () =
  let engine = Engine.create ~cpus:1 () in
  let old_calls = ref 0 in
  let stale () = incr old_calls in
  let m1 = Engine.spawn engine ~kind:Engine.Mutator ~name:"m1" in
  let m2 = Engine.spawn engine ~kind:Engine.Mutator ~name:"m2" in
  let m3 = Engine.spawn engine ~kind:Engine.Mutator ~name:"m3" in
  let s = Engine.spawn engine ~kind:Engine.Mutator ~name:"s" in
  let idle = Engine.spawn engine ~kind:Engine.Mutator ~name:"idle" in
  Engine.at engine ~time:1_000 stale;
  Engine.stall engine s ~cycles:5_000 stale;
  (* one cpu: m1 runs first, then m2 takes the cpu and m3 and m1 wait in
     the run queue when the abort lands *)
  Engine.submit engine m1 ~cycles:100 (fun () ->
      Engine.submit engine m1 ~cycles:10 stale;
      Engine.abort engine ~reason:"boom");
  Engine.submit engine m2 ~cycles:50 stale;
  Engine.submit engine m3 ~cycles:50 stale;
  (match Engine.run engine () with
  | Engine.Aborted reason -> check Alcotest.string "aborted" "boom" reason
  | Engine.All_mutators_finished -> Alcotest.fail "expected abort");
  Engine.reset engine ~cpus:1 ();
  let warm = scripted_run engine in
  let fresh = scripted_run (Engine.create ~cpus:1 ()) in
  check Alcotest.int "no old continuation ran" 0 !old_calls;
  check
    Alcotest.(list (pair int string))
    "same order as a fresh engine" (fst fresh) (fst warm);
  check Alcotest.(list int) "same fingerprint as a fresh engine" (snd fresh) (snd warm);
  Alcotest.check_raises "an old idle thread's handle cannot submit"
    (Invalid_argument "Engine.submit: thread idle is not idle") (fun () ->
      Engine.submit engine idle ~cycles:1 stale)

(* Each timer schedules the next, so every firing frees the slot the next
   one takes. *)
let test_chained_timers () =
  let engine = Engine.create ~cpus:1 () in
  let th = Engine.spawn engine ~kind:Engine.Mutator ~name:"m" in
  let n = 10_000 in
  let fired = ref 0 in
  let wrong = ref 0 in
  let rec tick i () =
    if Engine.now engine <> 3 * i then incr wrong;
    if i <> !fired + 1 then incr wrong;
    fired := i;
    if i < n then Engine.after engine ~cycles:3 (tick (i + 1))
  in
  Engine.after engine ~cycles:3 (tick 1);
  Engine.submit engine th ~cycles:((3 * n) + 1) (fun () -> Engine.exit_thread engine th);
  run_ok engine;
  check Alcotest.int "all fired" n !fired;
  check Alcotest.int "each in order at its cycle" 0 !wrong;
  check Alcotest.int "engine ends after the last timer" ((3 * n) + 1) (Engine.now engine)

let suite =
  [
    Alcotest.test_case "single thread time" `Quick test_single_thread_time;
    Alcotest.test_case "parallel threads" `Quick test_parallel_threads;
    Alcotest.test_case "oversubscription" `Quick test_oversubscription;
    Alcotest.test_case "cycle conservation" `Quick test_cycle_conservation;
    Alcotest.test_case "zero-cycle step" `Quick test_zero_cycle_step;
    Alcotest.test_case "timer" `Quick test_timer_fires;
    Alcotest.test_case "stall consumes no cycles" `Quick test_stall_no_cycles;
    Alcotest.test_case "stall frees cpu" `Quick test_stall_frees_cpu;
    Alcotest.test_case "park/resume" `Quick test_park_resume;
    Alcotest.test_case "safepoint protocol" `Quick test_safepoint_protocol;
    Alcotest.test_case "mutators stopped in pause" `Quick test_mutators_stopped_during_pause;
    Alcotest.test_case "abort" `Quick test_abort;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "event budget" `Quick test_event_budget;
    Alcotest.test_case "FIFO fairness" `Quick test_fifo_fairness;
    Alcotest.test_case "double submit rejected" `Quick test_double_submit_rejected;
    Alcotest.test_case "after rejects negative cycles" `Quick test_after_rejects_negative;
    Alcotest.test_case "timer/step ties in insertion order" `Quick test_timer_step_ties;
    Alcotest.test_case "reset after abort" `Quick test_reset_after_abort;
    Alcotest.test_case "10k chained timers" `Quick test_chained_timers;
  ]
