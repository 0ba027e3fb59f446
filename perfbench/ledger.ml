(* Host-time ledger for the traced run.

   Spans are opened and closed around calls into each layer's public
   functions, kept in memory, and written as Chrome trace-event JSON when
   the run ends.  A span's self time is its duration minus the time its
   children cover; self times are summed per span name, and each name is
   one layer of the ledger.

   Inside a simulation span, an obs subscriber charges the host time
   between consecutive [Step_complete] events to the thread kind of the
   step (mutator or GC worker), to the open GC phase of that thread, and
   to the pause share when the step ran inside a stop-the-world pause.
   Those charges become child time of the simulation span, so the
   [engine] layer keeps only what no step accounts for. *)

module Event = Gcr_obs.Event
module Obs = Gcr_obs.Obs

let now = Unix.gettimeofday

type frame = { f_name : string; f_start : float; mutable f_children : float }

type t = {
  origin : float;
  mutable stack : frame list;
  mutable events : (char * string * float) list;  (** newest first *)
  mutable spans : int;
  self : (string, float ref) Hashtbl.t;
  (* step attribution *)
  mutable last_step : float;
  kind_s : float array;
  kind_steps : int array;
  mutable pause_gc_s : float;
  phase_s : float array;
  mutable tid_phase : int array;  (** open phase index per tid, -1 = none *)
  mutable spine_events : int;
}

let create () =
  {
    origin = now ();
    stack = [];
    events = [];
    spans = 0;
    self = Hashtbl.create 32;
    last_step = 0.0;
    kind_s = Array.make Event.num_kinds 0.0;
    kind_steps = Array.make Event.num_kinds 0;
    pause_gc_s = 0.0;
    phase_s = Array.make Event.num_phases 0.0;
    tid_phase = Array.make 64 (-1);
    spine_events = 0;
  }

let add_self t name secs =
  match Hashtbl.find_opt t.self name with
  | Some r -> r := !r +. secs
  | None -> Hashtbl.replace t.self name (ref secs)

let self_s t name = match Hashtbl.find_opt t.self name with Some r -> !r | None -> 0.0

let layers t = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.self []

let spans t = t.spans

(* Attribute [secs] of the innermost open span to a named child layer
   that has no span of its own (the per-step charges). *)
let charge_child t name secs =
  add_self t name secs;
  match t.stack with f :: _ -> f.f_children <- f.f_children +. secs | [] -> ()

let open_span t name =
  let f = { f_name = name; f_start = now (); f_children = 0.0 } in
  t.stack <- f :: t.stack;
  t.events <- ('B', name, f.f_start) :: t.events

let close_span t =
  match t.stack with
  | [] -> invalid_arg "Ledger.close_span: no open span"
  | f :: rest ->
      let stop = now () in
      let d = stop -. f.f_start in
      t.stack <- rest;
      t.spans <- t.spans + 1;
      t.events <- ('E', f.f_name, stop) :: t.events;
      add_self t f.f_name (d -. f.f_children);
      (match rest with p :: _ -> p.f_children <- p.f_children +. d | [] -> ())

(* [span l name f]: with no ledger attached this is just [f ()]. *)
let span l name f =
  match l with
  | None -> f ()
  | Some t ->
      open_span t name;
      Fun.protect ~finally:(fun () -> close_span t) f

(* --- step attribution --- *)

let phase_of_tid t tid = if tid < Array.length t.tid_phase then t.tid_phase.(tid) else -1

let set_phase t tid p =
  if tid >= Array.length t.tid_phase then begin
    let grown = Array.make (max (tid + 1) (2 * Array.length t.tid_phase)) (-1) in
    Array.blit t.tid_phase 0 grown 0 (Array.length t.tid_phase);
    t.tid_phase <- grown
  end;
  t.tid_phase.(tid) <- p

let subscriber t =
  {
    Obs.sub_name = "perfbench-ledger";
    on_event =
      (fun ~time:_ ~code ~a ~b ~c ->
        t.spine_events <- t.spine_events + 1;
        if code = Event.code_step_complete then begin
          let stamp = now () in
          let dt = stamp -. t.last_step in
          t.last_step <- stamp;
          let kind = Event.step_kind_of_flags b in
          t.kind_s.(kind) <- t.kind_s.(kind) +. dt;
          t.kind_steps.(kind) <- t.kind_steps.(kind) + 1;
          if kind = Event.gc_worker_kind then begin
            if Event.step_in_pause_of_flags b then t.pause_gc_s <- t.pause_gc_s +. dt;
            let p = phase_of_tid t a in
            if p >= 0 then t.phase_s.(p) <- t.phase_s.(p) +. dt
          end
        end
        else if code = Event.code_phase_begin then set_phase t c b
        else if code = Event.code_phase_end then set_phase t c (-1));
  }

(* Run [f] (which drives the engine) as the [engine] span: step charges
   made while it runs become the [mutator] and [gc] layers. *)
let simulate l f =
  match l with
  | None -> f ()
  | Some t ->
      open_span t "engine";
      let k0 = Array.copy t.kind_s in
      Array.fill t.tid_phase 0 (Array.length t.tid_phase) (-1);
      t.last_step <- now ();
      Fun.protect
        ~finally:(fun () ->
          charge_child t "mutator" (t.kind_s.(Event.mutator_kind) -. k0.(Event.mutator_kind));
          charge_child t "gc" (t.kind_s.(Event.gc_worker_kind) -. k0.(Event.gc_worker_kind));
          close_span t)
        f

let attach l obs = match l with None -> () | Some t -> Obs.subscribe obs (subscriber t)

let kind_s t k = t.kind_s.(k)

let kind_steps t k = t.kind_steps.(k)

let pause_gc_s t = t.pause_gc_s

let phase_s t i = t.phase_s.(i)

let spine_events t = t.spine_events

(* --- export --- *)

let write_trace t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
      output_string oc
        {|{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"perfbench"}}|};
      List.iter
        (fun (ph, name, ts) ->
          let us = (ts -. t.origin) *. 1e6 in
          if ph = 'B' then
            Printf.fprintf oc
              ",\n{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"cat\":\"layer\",\"name\":\"%s\"}"
              us name
          else Printf.fprintf oc ",\n{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":%.3f}" us)
        (List.rev t.events);
      output_string oc "\n]}\n")
