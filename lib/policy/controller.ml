(* Heap-limit controllers: observe the run at safepoints, return a new
   heap limit.

   The [spec] is the serialisable half — it travels in [Run.config],
   renders into cache keys, and crosses the fabric's process boundary by
   marshalling.  The stateful half ([t]) is built per run from the spec
   and never leaves the process.

   Controllers see only collector-independent observables (cumulative
   allocation, live words, cumulative GC cycles, the clock), all of which
   come off the obs spine and the heap at a pause boundary, so one
   controller composes with every collector in the registry. *)

type spec =
  | Fixed
  | Membalancer of { tuning : float; min_period : int }
  | Monk of { target_overhead : float; band : float; min_period : int }

(* Decision cadence floor: pause_end events arrive per collection, which
   can be every few tens of microseconds of simulated time under heap
   pressure; rate-limiting keeps the limit trajectory readable and stops
   grow/shrink chatter. *)
let default_min_period = 100_000

let fixed = Fixed

(* Rent weight calibrated on the suite: at 4096 the square-root rule
   undercuts the best fixed heap factor's memory.time integral on the
   steady benchmarks (jme, h2) at matched wall cost; much higher and the
   rule buys memory so cheaply it out-provisions every fixed factor. *)
let membalancer = Membalancer { tuning = 4096.0; min_period = default_min_period }

let monk =
  Monk { target_overhead = 0.08; band = 0.5; min_period = default_min_period }

let name = function
  | Fixed -> "fixed"
  | Membalancer _ -> "membalancer"
  | Monk _ -> "monk"

let of_name s =
  match String.lowercase_ascii s with
  | "fixed" | "none" | "off" -> Some fixed
  | "membalancer" | "mem-balancer" | "sqrt" -> Some membalancer
  | "monk" | "opportunistic" -> Some monk
  | _ -> None

let valid_names = [ "fixed"; "membalancer"; "monk" ]

let is_fixed = function Fixed -> true | Membalancer _ | Monk _ -> false

(* Exact parameter rendering for cache keys: floats in hex so distinct
   bit patterns never collapse (the same discipline as Cache_key). *)
let render = function
  | Fixed -> "ctl=fixed"
  | Membalancer { tuning; min_period } ->
      Printf.sprintf "ctl=membalancer(tuning=%h,period=%d)" tuning min_period
  | Monk { target_overhead; band; min_period } ->
      Printf.sprintf "ctl=monk(target=%h,band=%h,period=%d)" target_overhead band
        min_period

type sample = {
  now : int;
  live_words : int;
  capacity_words : int;
  allocated_words : int;
  gc_cycles : int;
  mutator_cycles : int;
}

type t = {
  spec : spec;
  min_heap_words : int;
  max_heap_words : int;
  mutable last_now : int;
  mutable last_allocated : int;
  mutable last_gc : int;
}

let make spec ~min_heap_words ~max_heap_words =
  if min_heap_words < 0 || max_heap_words < min_heap_words then
    invalid_arg "Controller.make: bad heap bounds";
  { spec; min_heap_words; max_heap_words; last_now = 0; last_allocated = 0; last_gc = 0 }

let clamp t ~live w =
  (* never shrink below the live set plus copy headroom, nor the
     configured floor; never grow past the machine's memory *)
  let floor_words = max t.min_heap_words (live + (live / 4)) in
  min t.max_heap_words (max floor_words w)

(* Change threshold: a decision within 1/16 of the current limit is noise
   (one region either way on small heaps), not a resize. *)
let significant ~current w = abs (w - current) * 16 > current

let observe t sample =
  let elapsed = sample.now - t.last_now in
  let min_period =
    match t.spec with
    | Fixed -> max_int
    | Membalancer { min_period; _ } | Monk { min_period; _ } -> min_period
  in
  if elapsed < min_period then None
  else begin
    let delta_gc = sample.gc_cycles - t.last_gc in
    t.last_now <- sample.now;
    t.last_allocated <- sample.allocated_words;
    t.last_gc <- sample.gc_cycles;
    match t.spec with
    | Fixed -> None
    | Membalancer { tuning; _ } ->
        (* The square-root rule.  MemBalancer sizes the extra heap E to
           minimise (collection cost) + (memory rent):
             E* = sqrt(c · g · L / s)
           with g the allocation rate and s the collection speed.  In
           steady state collection keeps up with allocation, so g / s is
           exactly the measured GC time fraction — which the spine gives
           us directly, with no per-collector plumbing. *)
        let gc_frac = float_of_int delta_gc /. float_of_int (max 1 elapsed) in
        let live = float_of_int (max 1 sample.live_words) in
        let extra = sqrt (tuning *. live *. gc_frac) in
        let target = clamp t ~live:sample.live_words (sample.live_words + int_of_float extra) in
        if significant ~current:sample.capacity_words target then Some target else None
    | Monk { target_overhead; band; _ } ->
        (* Opportunistic CPU/memory trading: when GC overhead since the
           last decision runs hot, spend memory to buy mutator CPU back;
           when it runs cold, return memory.  Multiplicative steps with a
           dead band give Monk-style hysteresis instead of oscillation. *)
        let gc_frac = float_of_int delta_gc /. float_of_int (max 1 elapsed) in
        let current = sample.capacity_words in
        let target =
          if gc_frac > target_overhead *. (1.0 +. band) then current + (current / 4)
          else if gc_frac < target_overhead *. (1.0 -. band) then current - (current / 8)
          else current
        in
        let target = clamp t ~live:sample.live_words target in
        if significant ~current target then Some target else None
  end
