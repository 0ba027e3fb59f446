module Engine = Gcr_engine.Engine
module Obs = Gcr_obs.Obs
module Prng = Gcr_util.Prng
module Histogram = Gcr_util.Histogram
module Gc_types = Gcr_gcs.Gc_types

(* DaCapo-style metered latency: requests are processed eagerly (the
   benchmark's duration stays a throughput measure), while each request
   carries a synthetic arrival timestamp drawn from a metered (Poisson)
   schedule.  Metered latency is completion minus synthetic arrival — so
   when GC makes processing fall behind the schedule, queueing delay
   accumulates against every subsequent request, exactly the
   tail-amplification the paper's Figures 2b and 4 show. *)

type t = {
  ctx : Gc_types.ctx;
  latency_spec : Spec.latency_spec;
  mutators : Mutator.t list;
  arrivals : int array;  (** synthetic arrival time of request i *)
  obs : Obs.t;  (** request latencies live on the event spine *)
  mutable next_request : int;
}

(* Rough ideal cycles to serve one packet: compute plus allocation fast
   paths.  Used only to derive the metered schedule. *)
let packet_cycles_estimate (spec : Spec.t) =
  spec.Spec.packet_compute_cycles
  + (spec.Spec.allocs_per_packet * (10 + spec.Spec.size_mean))

(* The arrival schedule is a pure function of (spec, thread count, PRNG
   stream) — no GC or heap state — which is what lets workload tapes
   record it once and replay it verbatim in every sibling cell. *)
let arrival_schedule ~spec ~threads prng =
  let latency_spec =
    match spec.Spec.latency with
    | Some l -> l
    | None -> invalid_arg "Latency.arrival_schedule: spec is not latency-sensitive"
  in
  let total =
    max 1 (threads * spec.Spec.packets_per_thread / latency_spec.Spec.request_packets)
  in
  let service_cycles = latency_spec.Spec.request_packets * packet_cycles_estimate spec in
  let inter_arrival_mean =
    float_of_int service_cycles /. (float_of_int threads *. latency_spec.Spec.offered_load)
  in
  let arrivals = Array.make total 0 in
  let clock = ref 0.0 in
  for i = 0 to total - 1 do
    clock := !clock +. Prng.exponential prng ~mean:inter_arrival_mean;
    arrivals.(i) <- int_of_float !clock
  done;
  arrivals

let create (ctx : Gc_types.ctx) ~spec ~mutators ~arrivals =
  let latency_spec =
    match spec.Spec.latency with
    | Some l -> l
    | None -> invalid_arg "Latency.create: spec is not latency-sensitive"
  in
  if Array.length arrivals = 0 then invalid_arg "Latency.create: empty arrival schedule";
  {
    ctx;
    latency_spec;
    mutators;
    arrivals;
    obs = Engine.obs ctx.Gc_types.engine;
    next_request = 0;
  }

let rec serve t m () =
  if t.next_request >= Array.length t.arrivals then Mutator.exit m
  else begin
    let index = t.next_request in
    t.next_request <- index + 1;
    let tid = Engine.thread_id (Mutator.thread m) in
    let start = Engine.now t.ctx.Gc_types.engine in
    Obs.request_start t.obs ~time:start ~index ~tid;
    Mutator.run_packets m t.latency_spec.Spec.request_packets (fun () ->
        let now = Engine.now t.ctx.Gc_types.engine in
        let service = now - start in
        (* If processing is ahead of the metered schedule, the request
           would have waited for its arrival: latency is the service time.
           Behind schedule, queueing delay dominates. *)
        Obs.request_complete t.obs ~time:now ~index ~service
          ~metered:(max service (now - t.arrivals.(index)));
        serve t m ())
  end

let start t = List.iter (fun m -> serve t m ()) t.mutators
