module Prng = Gcr_util.Prng
module Tape = Gcr_tape.Tape

(* Every tape is synthesised here, with no heap or engine, by replicating
   Run.execute's PRNG plumbing:

     root          = Prng.create seed
     (long-lived)    Prng.split root     -- consumed, stream unused
     mutator i     = Prng.split root     for i = 0 .. threads-1
     latency       = Prng.split root     only for latency-sensitive specs

   and then drawing each mutator stream eagerly.  The raw stream is a pure
   function of (seed, split order), so it is word for word the stream a
   live run draws (test_tape.ml holds replay to the live run under every
   collector).

   [stream_length] bounds the draws one thread can make without allocation
   retries: per packet, one churn-quota draw plus at most five draws per
   allocation (size, chain, long-lived ref, ref target, survival — the
   long-lived path uses at most four).  Retry re-draws past the bound are
   served by the replay cursor's PRNG fallback, so the bound does not have
   to be exact — only cheap and generous. *)

let draws_per_packet (spec : Spec.t) = 1 + (5 * spec.Spec.allocs_per_packet)

let stream_length (spec : Spec.t) = spec.Spec.packets_per_thread * draws_per_packet spec

let generate ~(spec : Spec.t) ~seed =
  let threads = spec.Spec.mutator_threads in
  let root = Prng.create seed in
  let (_ : Prng.t) = Prng.split root in
  let length = stream_length spec in
  let streams =
    (* explicit loop: stream [i] must take the [i]-th split, in order *)
    let a = Array.make threads { Tape.state0 = 0L; gamma = 0L; raw = [||] } in
    for i = 0 to threads - 1 do
      let prng = Prng.split root in
      let state0, gamma = Prng.raw_state prng in
      let raw = Array.make length 0 in
      for k = 0 to length - 1 do
        raw.(k) <- Int64.to_int (Int64.shift_right_logical (Prng.bits64 prng) 2)
      done;
      a.(i) <- { Tape.state0; gamma; raw }
    done;
    a
  in
  let arrivals =
    match spec.Spec.latency with
    | None -> [||]
    | Some _ -> Latency.arrival_schedule ~spec ~threads (Prng.split root)
  in
  {
    Tape.benchmark = spec.Spec.name;
    spec_digest = Spec.digest spec;
    seed;
    streams;
    arrivals;
  }

let image ~spec ~seed = Decision_source.image_of_tape ~spec (generate ~spec ~seed)
