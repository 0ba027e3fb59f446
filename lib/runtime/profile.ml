(* Per-process phase self-time accounting for `gcr campaign --profile`.

   Three wall-clock accumulators — run setup (everything Run.execute does
   before handing control to the engine), tape preparation (generation,
   store round-trips, image decode), and simulation (Engine.run itself) —
   kept as microsecond counters.  Fabric workers run in their own
   processes and ship their deltas back inside result frames; the
   harness sums both sources.

   Host-time only: nothing here feeds back into simulated results. *)

type snapshot = { setup_us : int; tape_us : int; simulate_us : int }

let zero = { setup_us = 0; tape_us = 0; simulate_us = 0 }

let setup = ref 0

let tape = ref 0

let simulate = ref 0

let add counter seconds =
  let us = int_of_float (seconds *. 1e6) in
  if us > 0 then counter := !counter + us

let add_setup_s s = add setup s

let add_tape_s s = add tape s

let add_simulate_s s = add simulate s

let snapshot () =
  {
    setup_us = !setup;
    tape_us = !tape;
    simulate_us = !simulate;
  }

let diff a b =
  {
    setup_us = a.setup_us - b.setup_us;
    tape_us = a.tape_us - b.tape_us;
    simulate_us = a.simulate_us - b.simulate_us;
  }

let seconds us = float_of_int us /. 1e6
