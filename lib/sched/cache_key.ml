module Machine = Gcr_mach.Machine
module Cost_model = Gcr_mach.Cost_model
module Registry = Gcr_gcs.Registry
module Spec = Gcr_workloads.Spec
module Run = Gcr_runtime.Run

(* Bump whenever the rendering, Run semantics, or Measurement layout
   change incompatibly: old cache entries then miss instead of lying.
   v5: the heap-sizing controller joined the key (and Measurement grew
   footprint fields). *)
let version = "gcr-run-v5"

(* Floats are rendered in hex ("%h") so distinct bit patterns never
   collapse to one decimal rendering. *)
let f = Printf.sprintf "%h"

let render_latency = function
  | None -> "none"
  | Some { Spec.offered_load; request_packets } ->
      Printf.sprintf "load=%s,req=%d" (f offered_load) request_packets

let render_spec (s : Spec.t) =
  Printf.sprintf
    "spec(name=%s,desc=%s,threads=%d,packets=%d,compute=%d,allocs=%d,szmin=%d,szmean=%d,\
     szmax=%d,refd=%s,surv=%s,ttl=%d,llwords=%d,llchurn=%s,reads=%d,writes=%d,latency=%s)"
    (String.escaped s.Spec.name)
    (String.escaped s.Spec.description)
    s.Spec.mutator_threads s.Spec.packets_per_thread s.Spec.packet_compute_cycles
    s.Spec.allocs_per_packet s.Spec.size_min s.Spec.size_mean s.Spec.size_max
    (f s.Spec.ref_density) (f s.Spec.survival_ratio) s.Spec.nursery_ttl_packets
    s.Spec.long_lived_target_words
    (f s.Spec.long_lived_churn_per_packet)
    s.Spec.reads_per_packet s.Spec.writes_per_packet
    (render_latency s.Spec.latency)

let render_machine (m : Machine.t) =
  Printf.sprintf "machine(cpus=%d,memory=%d)" m.Machine.cpus m.Machine.memory_words

let render_cost (c : Cost_model.t) =
  (* Every field, in declaration order; a missing field here would make
     cost-model experiments silently share cache entries. *)
  Printf.sprintf
    "cost(%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d)"
    c.Cost_model.alloc_fast c.Cost_model.alloc_init_per_word c.Cost_model.tlab_refill
    c.Cost_model.alloc_slow c.Cost_model.barrier_none c.Cost_model.card_mark
    c.Cost_model.satb_idle c.Cost_model.satb_active c.Cost_model.lvb_idle
    c.Cost_model.lvb_slow c.Cost_model.rc_barrier c.Cost_model.rc_update_per_entry
    c.Cost_model.mark_per_object c.Cost_model.mark_per_edge
    c.Cost_model.concurrent_mark_penalty_pct c.Cost_model.copy_per_object
    c.Cost_model.copy_per_object_concurrent c.Cost_model.copy_per_word
    c.Cost_model.compact_per_word c.Cost_model.update_ref_per_edge
    c.Cost_model.sweep_per_region c.Cost_model.safepoint_global
    c.Cost_model.safepoint_per_thread c.Cost_model.gc_task_dispatch
    c.Cost_model.termination_per_worker c.Cost_model.cache_disruption_per_pause

let render (c : Run.config) =
  match c.Run.make_collector with
  | Some _ -> None
  | None ->
      Some
        (String.concat "|"
           [
             version;
             render_spec c.Run.spec;
             "gc=" ^ Registry.name c.Run.gc;
             Printf.sprintf "heap=%d" c.Run.heap_words;
             render_machine c.Run.machine;
             render_cost c.Run.cost;
             Printf.sprintf "seed=%d" c.Run.seed;
             Printf.sprintf "region=%d" c.Run.region_words;
             (match c.Run.max_events with
             | None -> "maxev=default"
             | Some n -> Printf.sprintf "maxev=%d" n);
             (* Replay results are bit-identical to live ones, but the key
                still carries the tape digest: an entry then certifies the
                exact decision stream it was computed from. *)
             (match c.Run.tape with
             | Run.Tape_off -> "tape=off"
             | Run.Tape_replay image ->
                 "tape=replay:" ^ Gcr_workloads.Decision_source.image_digest image);
             Gcr_policy.Controller.render c.Run.controller;
           ])

let of_config c = Option.map (fun s -> Digest.to_hex (Digest.string s)) (render c)
