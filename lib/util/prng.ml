(* SplitMix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.  The gamma constant is the golden ratio in
   64-bit fixed point; [mix] is the MurmurHash3 finalizer variant. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let popcount64 x =
  let rec loop x acc =
    if x = 0L then acc
    else loop Int64.(logand x (sub x 1L)) (acc + 1)
  in
  loop x 0

(* Used when splitting: ensures the derived gamma is odd and well mixed. *)
let mix_gamma z =
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL) in
  let z = Int64.(mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L) in
  let z = Int64.logor z 1L in
  let flips = popcount64 (Int64.logxor z (Int64.shift_right_logical z 1)) in
  if flips >= 24 then z else Int64.logxor z 0xAAAAAAAAAAAAAAAAL

let create seed = { state = mix (Int64.of_int seed); gamma = golden_gamma }

let next_seed t =
  t.state <- Int64.add t.state t.gamma;
  t.state

let bits64 t = mix (next_seed t)

let split t =
  let state = mix (next_seed t) in
  let gamma = mix_gamma (next_seed t) in
  { state; gamma }

let copy t = { state = t.state; gamma = t.gamma }

let raw_state t = (t.state, t.gamma)

let of_raw_state ~state ~gamma = { state; gamma }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 uniform bits mapped to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bits *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bernoulli t p = unit_float t < p

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let geometric_size t ~mean ~min ~max =
  assert (min <= max && mean >= min);
  let spread = float_of_int (mean - min) in
  let draw = min + int_of_float (exponential t ~mean:spread) in
  if draw > max then max else draw

let pareto t ~shape ~scale =
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))
