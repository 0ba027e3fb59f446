module Prng = Gcr_util.Prng
module Tape = Gcr_tape.Tape

(* Interpretation parameters — everything a raw 62-bit stream word can be
   asked to mean under one spec.  The chain and long-lived-reference
   probabilities are workload-model constants (see the wiring-discipline
   note in mutator.ml); the rest come from the spec. *)
type params = {
  size_mean : int;
  size_min : int;
  size_max : int;
  p_survive : float;
  p_churn : float;  (** fractional part of the per-packet churn quota *)
}

let p_chain = 0.5

let p_llref = 0.3

let params_of_spec (spec : Spec.t) =
  let churn = spec.Spec.long_lived_churn_per_packet in
  {
    size_mean = spec.Spec.size_mean;
    size_min = spec.Spec.size_min;
    size_max = spec.Spec.size_max;
    p_survive = spec.Spec.survival_ratio;
    p_churn = churn -. float_of_int (int_of_float churn);
  }

(* --- Interpreting a raw word exactly as the PRNG would. ---

   A raw word is [bits64 lsr 2] (62 bits).  [Prng.unit_float] uses
   [bits64 lsr 11], i.e. [raw lsr 9]; [interp_unit_float] and the size
   and Bernoulli decoding in [image_of_tape] replicate the Prng float math
   operation for operation, so interpreting a tape word yields the same
   bits as the live draw it replaces.  The differential suite in
   test_tape.ml holds this to account. *)

let interp_unit_float r = float_of_int (r lsr 9) *. 0x1.0p-53

let interp_index r bound = r mod bound

(* Replay image: per-position precomputed interpretations.  Packed layout
   (size_max <= 256 is enforced by Spec.validate, so the size fits 9 bits):
   bits 0..8 size, bit 9 chain, bit 10 ll_ref, bit 11 survive,
   bit 12 churn_extra.  The raw words are kept alongside for bound-relative
   index draws. *)

let bit_chain = 1 lsl 9

let bit_llref = 1 lsl 10

let bit_survive = 1 lsl 11

let bit_churn = 1 lsl 12

type thread_image = {
  state0 : int64;
  gamma : int64;
  packed : int array;
  raw : int array;
}

type image = {
  benchmark : string;
  seed : int;
  spec_digest : string;
  tape_digest : string;
  threads : thread_image array;
  arrivals : int array;
  p : params;
}

let image_of_tape ~spec (tape : Tape.t) =
  let spec_digest = Spec.digest spec in
  if tape.Tape.spec_digest <> spec_digest then
    invalid_arg
      (Printf.sprintf
         "Decision_source.image_of_tape: tape %s was recorded for spec digest %s, not %s"
         tape.Tape.benchmark tape.Tape.spec_digest spec_digest);
  let p = params_of_spec spec in
  (* Hoisted out of the per-word loop: the spread conversion and the
     per-spec thresholds are loop-invariant, and decoding runs over
     millions of words per full-size tape. *)
  let size_min = p.size_min in
  let size_max = p.size_max in
  let neg_spread = -.float_of_int (p.size_mean - size_min) in
  let p_survive = p.p_survive in
  let p_churn = p.p_churn in
  let threads =
    Array.map
      (fun (s : Tape.stream) ->
        let n = Array.length s.Tape.raw in
        let packed = Array.make n 0 in
        for i = 0 to n - 1 do
          let r = Array.unsafe_get s.Tape.raw i in
          let u = interp_unit_float r in
          let draw = size_min + int_of_float (neg_spread *. log (1.0 -. u)) in
          let size = if draw > size_max then size_max else draw in
          let v = size in
          let v = if u < p_chain then v lor bit_chain else v in
          let v = if u < p_llref then v lor bit_llref else v in
          let v = if u < p_survive then v lor bit_survive else v in
          let v = if u < p_churn then v lor bit_churn else v in
          Array.unsafe_set packed i v
        done;
        { state0 = s.Tape.state0; gamma = s.Tape.gamma; packed; raw = s.Tape.raw })
      tape.Tape.streams
  in
  {
    benchmark = tape.Tape.benchmark;
    seed = tape.Tape.seed;
    spec_digest;
    tape_digest = Tape.digest tape;
    threads;
    arrivals = tape.Tape.arrivals;
    p;
  }

let image_benchmark i = i.benchmark

let image_spec_digest i = i.spec_digest

let image_seed i = i.seed

let image_threads i = Array.length i.threads

let image_arrivals i = i.arrivals

let image_digest i = i.tape_digest

(* --- Sources. --- *)

type cursor = {
  packed : int array;
  raw : int array;
  rlen : int;
  mutable pos : int;
  fb : Prng.t;  (** continuation past the recorded stream *)
  cp : params;
}

type t =
  | Live of { prng : Prng.t; p : params }
  | Replay of cursor

let live ~spec prng = Live { prng; p = params_of_spec spec }

let replay image ~thread =
  if thread < 0 || thread >= Array.length image.threads then
    invalid_arg
      (Printf.sprintf "Decision_source.replay: thread %d of %d" thread
         (Array.length image.threads));
  let ti = image.threads.(thread) in
  let rlen = Array.length ti.raw in
  (* SplitMix64 state after n draws is state0 + n·gamma: the fallback
     generator continues the recorded stream exactly. *)
  let fb_state = Int64.add ti.state0 (Int64.mul (Int64.of_int rlen) ti.gamma) in
  Replay
    {
      packed = ti.packed;
      raw = ti.raw;
      rlen;
      pos = 0;
      fb = Prng.of_raw_state ~state:fb_state ~gamma:ti.gamma;
      cp = image.p;
    }

(* The replay hot path keeps the bounds check fused with the load: one
   compare, one bump, one unsafe read per draw.  (Funnelling the cursor
   through a shared [take] helper with a -1 exhaustion sentinel measured
   ~30% slower on tape/decisions_per_sec — the extra sentinel compare
   sits on every draw, and the common in-bounds case no longer folds
   into a single branch.) *)
let draw_size = function
  | Live { prng; p } ->
      Prng.geometric_size prng ~mean:p.size_mean ~min:p.size_min ~max:p.size_max
  | Replay c ->
      let k = c.pos in
      if k < c.rlen then begin
        c.pos <- k + 1;
        Array.unsafe_get c.packed k land 0x1ff
      end
      else
        Prng.geometric_size c.fb ~mean:c.cp.size_mean ~min:c.cp.size_min
          ~max:c.cp.size_max

let[@inline] replay_bit c bit pr =
  let k = c.pos in
  if k < c.rlen then begin
    c.pos <- k + 1;
    Array.unsafe_get c.packed k land bit <> 0
  end
  else Prng.bernoulli c.fb pr

let chain = function
  | Live { prng; _ } -> Prng.bernoulli prng p_chain
  | Replay c -> replay_bit c bit_chain p_chain

let ll_ref = function
  | Live { prng; _ } -> Prng.bernoulli prng p_llref
  | Replay c -> replay_bit c bit_llref p_llref

let survive = function
  | Live { prng; p } -> Prng.bernoulli prng p.p_survive
  | Replay c -> replay_bit c bit_survive c.cp.p_survive

let churn_extra = function
  | Live { prng; p } -> Prng.bernoulli prng p.p_churn
  | Replay c -> replay_bit c bit_churn c.cp.p_churn

let index t bound =
  match t with
  | Live { prng; _ } -> Prng.int prng bound
  | Replay c ->
      let k = c.pos in
      if k < c.rlen then begin
        c.pos <- k + 1;
        interp_index (Array.unsafe_get c.raw k) bound
      end
      else Prng.int c.fb bound
