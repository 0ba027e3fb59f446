module Vec = Gcr_util.Vec
module Ivec = Gcr_util.Ivec
module Obs = Gcr_obs.Obs
module Event = Gcr_obs.Event

type thread_kind = Mutator | Gc_worker

let kind_index = function Mutator -> Event.mutator_kind | Gc_worker -> Event.gc_worker_kind

type thread_state =
  | Idle  (** between steps; waiting for a submit *)
  | Queued  (** in the run queue *)
  | On_cpu
  | Parked_safepoint  (** step withheld until the pause is released *)
  | Parked  (** blocked, waiting for an explicit resume *)
  | Stalled
  | Finished

(* The pending step (cost + continuation) lives flat on the thread record
   rather than in per-event tuples/variants: submitting, queueing and
   completing a step allocates nothing.  A completed step's continuation
   stays in [pending_cb] until the next submit replaces it, which saves a
   write barrier per step; [exit_thread] and [reset] clear it.

   Cycle accounting does not live here: step completions are emitted into
   the observation spine ([obs]), which owns every derived counter. *)
type thread = {
  tid : int;
  kind : thread_kind;
  name : string;
  obs : Obs.t;
  mutable state : thread_state;
  mutable pending_cycles : int;
  mutable pending_cb : unit -> unit;
}

type pause = Gcr_obs.Obs.pause = { start : int; duration : int; reason : string }

type stop_state =
  | No_stop
  | Stopping of {
      reason : string;
      reason_id : int;
      cb : unit -> unit;
      mutable sync_scheduled : bool;
    }
  | Paused of { reason : string; reason_id : int }

(* The pre-refactor accounting, kept behind a debug flag
   (GCR_LEGACY_ACCOUNTING) so differential tests can check the
   event-derived numbers against it.  Off by default: ordinary runs carry
   no duplicate counters. *)
type legacy = {
  mutable lwall_stw : int;
  lkind_cycles : int array;
  lkind_cycles_stw : int array;
  lpauses : pause Vec.t;
}

(* The event queue holds one int per event and owns the clock.  A payload
   [tid >= 0] is the completion of that thread's step or stall — the
   thread's state says which, and the state machine puts a thread in the
   queue at most once.  A payload [-(slot + 1)] is a timer whose callback
   waits in [timers]; fired slots go back on the [timer_free] stack.
   Events pop in (time, seq) order, where seq is the order in which they
   entered the queue: a step enters when [dispatch] puts it on a CPU, a
   stall or timer when it is scheduled, so ties break in that order,
   whatever the event's kind. *)
type t = {
  mutable cpus : int;
  mutable safepoint_sync : int;
  mutable cache_disruption : int;
  obs : Obs.t;
  events : Event_queue.t;
  (* FIFO run queue: a power-of-two ring of tids (their step is in the
     pending fields) *)
  mutable ready : int array;
  mutable ready_head : int;
  mutable ready_len : int;
  mutable busy : int;
  threads : thread Vec.t;  (** indexed by tid *)
  mutable timers : (unit -> unit) array;  (** indexed by slot; free slots hold [nop] *)
  mutable timers_used : int;  (** slots ever handed out since the last reset *)
  timer_free : Ivec.t;
  mutable mutators_live : int;
  mutable mutators_active : int;  (** mutator steps queued or on CPU *)
  mutable stop : stop_state;
  mutable pause_start : int;
  legacy_on : bool;
  legacy : legacy;
  mutable aborted : string option;
}

type outcome = All_mutators_finished | Aborted of string

let nop () = ()

let create ~cpus ?(safepoint_sync_cycles = 3000) ?(cache_disruption_cycles = 0) ?obs () =
  if cpus < 1 then invalid_arg "Engine.create: cpus < 1";
  if safepoint_sync_cycles < 0 || cache_disruption_cycles < 0 then
    invalid_arg "Engine.create: negative cost";
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let t =
    {
      cpus;
      safepoint_sync = safepoint_sync_cycles;
      cache_disruption = cache_disruption_cycles;
      obs;
      events = Event_queue.create ();
      ready = Array.make 16 0;
      ready_head = 0;
      ready_len = 0;
      busy = 0;
      threads = Vec.create ();
      timers = [||];
      timers_used = 0;
      timer_free = Ivec.create ();
      mutators_live = 0;
      mutators_active = 0;
      stop = No_stop;
      pause_start = 0;
      legacy_on = Sys.getenv_opt "GCR_LEGACY_ACCOUNTING" <> None;
      legacy =
        {
          lwall_stw = 0;
          lkind_cycles = Array.make 2 0;
          lkind_cycles_stw = Array.make 2 0;
          lpauses = Vec.create ();
        };
      aborted = None;
    }
  in
  Obs.set_clock obs (fun () -> Event_queue.now t.events);
  t

(* Rewind a finished (or aborted) engine for its next run, keeping the
   event heap, run-queue ring, thread vec and timer table at their grown
   capacities.  The observation spine is reset with it — subscribers
   included, so a previous run's probes cannot fire — and its clock
   closure stays valid because the engine identity is unchanged.  An
   aborted run leaves arbitrary mid-flight state (queued events, parked
   threads, pending timers, an open pause); nothing here assumes a clean
   end, so a poisoned engine re-arms fully, and no continuation of the old
   run stays reachable from the engine. *)
let reset t ~cpus ?(safepoint_sync_cycles = 3000) ?(cache_disruption_cycles = 0) () =
  if cpus < 1 then invalid_arg "Engine.reset: cpus < 1";
  if safepoint_sync_cycles < 0 || cache_disruption_cycles < 0 then
    invalid_arg "Engine.reset: negative cost";
  t.cpus <- cpus;
  t.safepoint_sync <- safepoint_sync_cycles;
  t.cache_disruption <- cache_disruption_cycles;
  Event_queue.reset t.events;
  t.ready_head <- 0;
  t.ready_len <- 0;
  t.busy <- 0;
  (* A stale handle to an old thread must not reach the new run's thread
     of the same tid, so old threads end Finished, without their
     continuations. *)
  Vec.iter
    (fun th ->
      th.state <- Finished;
      th.pending_cb <- nop)
    t.threads;
  Vec.clear t.threads;
  Array.fill t.timers 0 t.timers_used nop;
  t.timers_used <- 0;
  Ivec.clear t.timer_free;
  t.mutators_live <- 0;
  t.mutators_active <- 0;
  t.stop <- No_stop;
  t.pause_start <- 0;
  t.legacy.lwall_stw <- 0;
  Array.fill t.legacy.lkind_cycles 0 (Array.length t.legacy.lkind_cycles) 0;
  Array.fill t.legacy.lkind_cycles_stw 0 (Array.length t.legacy.lkind_cycles_stw) 0;
  Vec.clear t.legacy.lpauses;
  t.aborted <- None;
  Obs.reset t.obs

let obs t = t.obs

let[@inline] now t = Event_queue.now t.events

let spawn t ~kind ~name =
  let th =
    {
      tid = Vec.length t.threads;
      kind;
      name;
      obs = t.obs;
      state = Idle;
      pending_cycles = 0;
      pending_cb = nop;
    }
  in
  Vec.push t.threads th;
  if kind = Mutator then t.mutators_live <- t.mutators_live + 1;
  Obs.thread_spawn t.obs ~time:(now t) ~tid:th.tid ~kind:(kind_index kind) ~name;
  th

let thread_kind th = th.kind

let[@inline] thread_id th = th.tid

let[@inline] pause_active t = match t.stop with Paused _ -> true | No_stop | Stopping _ -> false

let[@inline] stop_pending t = match t.stop with No_stop -> false | Stopping _ | Paused _ -> true

let stw_active t = pause_active t

let stop_requested = stop_pending

let[@inline] ready_push t tid =
  if t.ready_len = Array.length t.ready then begin
    let cap = Array.length t.ready in
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to t.ready_len - 1 do
      ring.(i) <- t.ready.((t.ready_head + i) land (cap - 1))
    done;
    t.ready <- ring;
    t.ready_head <- 0
  end;
  let ring = t.ready in
  Array.unsafe_set ring ((t.ready_head + t.ready_len) land (Array.length ring - 1)) tid;
  t.ready_len <- t.ready_len + 1

let[@inline] ready_pop t =
  let ring = t.ready in
  let tid = Array.unsafe_get ring t.ready_head in
  t.ready_head <- (t.ready_head + 1) land (Array.length ring - 1);
  t.ready_len <- t.ready_len - 1;
  tid

let[@inline] enqueue_ready t th cycles cb =
  th.state <- Queued;
  th.pending_cycles <- cycles;
  (* a worker resubmitting its own continuation skips the write barrier *)
  if th.pending_cb != cb then th.pending_cb <- cb;
  if th.kind = Mutator then t.mutators_active <- t.mutators_active + 1;
  ready_push t th.tid

let[@inline] submit t th ~cycles cb =
  if cycles < 0 then invalid_arg "Engine.submit: negative cycles";
  (match th.state with
  | Idle -> ()
  | Queued | On_cpu | Parked_safepoint | Parked | Stalled | Finished ->
      invalid_arg (Printf.sprintf "Engine.submit: thread %s is not idle" th.name));
  if th.kind = Mutator && stop_pending t then begin
    th.state <- Parked_safepoint;
    th.pending_cycles <- cycles;
    th.pending_cb <- cb
  end
  else enqueue_ready t th cycles cb

let exit_thread t th =
  (match th.state with
  | Idle | Parked | Stalled -> ()
  | Queued | On_cpu | Parked_safepoint | Finished ->
      invalid_arg (Printf.sprintf "Engine.exit_thread: thread %s is busy" th.name));
  th.state <- Finished;
  th.pending_cb <- nop;
  if th.kind = Mutator then t.mutators_live <- t.mutators_live - 1

let stall t th ~cycles cb =
  if cycles < 0 then invalid_arg "Engine.stall: negative cycles";
  (match th.state with
  | Idle -> ()
  | Queued | On_cpu | Parked_safepoint | Parked | Stalled | Finished ->
      invalid_arg (Printf.sprintf "Engine.stall: thread %s is not idle" th.name));
  th.state <- Stalled;
  th.pending_cycles <- 0;
  th.pending_cb <- cb;
  let time = now t + cycles in
  Obs.stall_begin t.obs ~time:(now t) ~tid:th.tid ~wake:time;
  Event_queue.add t.events ~time th.tid

let[@inline] park _t th =
  (match th.state with
  | Idle -> ()
  | Queued | On_cpu | Parked_safepoint | Parked | Stalled | Finished ->
      invalid_arg (Printf.sprintf "Engine.park: thread %s is not idle" th.name));
  th.state <- Parked

let[@inline] resume t th cb =
  (match th.state with
  | Parked -> ()
  | Idle | Queued | On_cpu | Parked_safepoint | Stalled | Finished ->
      invalid_arg (Printf.sprintf "Engine.resume: thread %s is not parked" th.name));
  th.state <- Idle;
  submit t th ~cycles:0 cb

let at t ~time cb =
  if time < now t then invalid_arg "Engine.at: time in the past";
  let slot =
    if not (Ivec.is_empty t.timer_free) then Ivec.pop t.timer_free
    else begin
      let slot = t.timers_used in
      let cap = Array.length t.timers in
      if slot = cap then begin
        let table = Array.make (if cap = 0 then 8 else cap * 2) nop in
        Array.blit t.timers 0 table 0 cap;
        t.timers <- table
      end;
      t.timers_used <- slot + 1;
      slot
    end
  in
  t.timers.(slot) <- cb;
  Event_queue.add t.events ~time (-(slot + 1))

let after t ~cycles cb =
  if cycles < 0 then invalid_arg "Engine.after: negative cycles";
  at t ~time:(now t + cycles) cb

let request_stop t ~reason cb =
  (match t.stop with
  | No_stop -> ()
  | Stopping _ | Paused _ -> invalid_arg "Engine.request_stop: stop already in progress");
  let reason_id = Obs.intern t.obs reason in
  Obs.safepoint_request t.obs ~time:(now t) ~reason_id;
  t.stop <- Stopping { reason; reason_id; cb; sync_scheduled = false }

(* Once no mutator step is queued or running, the global sync cost elapses
   and the pause window opens. *)
let check_stop_ready t =
  match t.stop with
  | No_stop | Paused _ -> ()
  | Stopping s ->
      if t.mutators_active = 0 && not s.sync_scheduled then begin
        s.sync_scheduled <- true;
        at t ~time:(now t + t.safepoint_sync) (fun () ->
            t.stop <- Paused { reason = s.reason; reason_id = s.reason_id };
            t.pause_start <- now t;
            Obs.pause_begin t.obs ~time:(now t) ~reason_id:s.reason_id;
            s.cb ())
      end

let release_stop t =
  match t.stop with
  | No_stop | Stopping _ -> invalid_arg "Engine.release_stop: no pause is open"
  | Paused { reason; reason_id } ->
      if t.legacy_on then
        Vec.push t.legacy.lpauses
          { start = t.pause_start; duration = now t - t.pause_start; reason };
      Obs.pause_end t.obs ~time:(now t) ~reason_id;
      t.stop <- No_stop;
      Vec.iter
        (fun th ->
          match th.state with
          | Parked_safepoint ->
              (* resuming mutators restart with a cold cache *)
              enqueue_ready t th (th.pending_cycles + t.cache_disruption) th.pending_cb
          | Idle | Queued | On_cpu | Parked | Stalled | Finished -> ())
        t.threads

let pauses t = Obs.pauses t.obs

let wall_stw t = Obs.wall_stw t.obs ~now:(now t)

let cycles_of_kind t kind = Obs.cycles_of_kind t.obs (kind_index kind)

let cycles_stw_of_kind t kind = Obs.cycles_stw_of_kind t.obs (kind_index kind)

let cycles_of_thread (th : thread) = Obs.cycles_of_thread th.obs th.tid

type legacy_snapshot = {
  lsnap_wall_stw : int;
  lsnap_cycles_mutator : int;
  lsnap_cycles_gc : int;
  lsnap_cycles_mutator_stw : int;
  lsnap_cycles_gc_stw : int;
  lsnap_pauses : pause list;
}

let legacy_snapshot t =
  if not t.legacy_on then None
  else begin
    let l = t.legacy in
    (* mirror the historical accrual: an open pause's wall time was added
       incrementally by the clock, so it is already in [lwall_stw] *)
    Some
      {
        lsnap_wall_stw = l.lwall_stw;
        lsnap_cycles_mutator = l.lkind_cycles.(0);
        lsnap_cycles_gc = l.lkind_cycles.(1);
        lsnap_cycles_mutator_stw = l.lkind_cycles_stw.(0);
        lsnap_cycles_gc_stw = l.lkind_cycles_stw.(1);
        lsnap_pauses = Vec.to_list l.lpauses;
      }
  end

let abort t ~reason = if t.aborted = None then t.aborted <- Some reason

let[@inline] dispatch t =
  while t.busy < t.cpus && t.ready_len > 0 do
    let th = Vec.get t.threads (ready_pop t) in
    (match th.state with
    | Queued -> ()
    | Idle | On_cpu | Parked_safepoint | Parked | Stalled | Finished -> assert false);
    th.state <- On_cpu;
    t.busy <- t.busy + 1;
    Event_queue.add t.events ~time:(now t + th.pending_cycles) th.tid
  done

(* Pop the next event, advancing the clock to its time. *)
let[@inline] pop_event t =
  if t.legacy_on && pause_active t then begin
    let before = now t in
    let payload = Event_queue.pop t.events in
    t.legacy.lwall_stw <- t.legacy.lwall_stw + (now t - before);
    payload
  end
  else Event_queue.pop t.events

let fire_timer t slot =
  let cb = t.timers.(slot) in
  t.timers.(slot) <- nop;
  Ivec.push t.timer_free slot;
  cb ()

let process_event t payload =
  if payload < 0 then fire_timer t (-payload - 1)
  else begin
    let th = Vec.get t.threads payload in
    match th.state with
    | On_cpu ->
        (* step completion *)
        let cycles = th.pending_cycles in
        let cb = th.pending_cb in
        t.busy <- t.busy - 1;
        if th.kind = Mutator then t.mutators_active <- t.mutators_active - 1;
        th.state <- Idle;
        let in_pause = pause_active t in
        Obs.step_complete t.obs ~time:(now t) ~tid:th.tid ~kind:(kind_index th.kind)
          ~cycles ~in_pause;
        if t.legacy_on then begin
          let k = kind_index th.kind in
          t.legacy.lkind_cycles.(k) <- t.legacy.lkind_cycles.(k) + cycles;
          if in_pause then
            t.legacy.lkind_cycles_stw.(k) <- t.legacy.lkind_cycles_stw.(k) + cycles
        end;
        cb ()
    | Stalled ->
        (* stall completion *)
        Obs.stall_end t.obs ~time:(now t) ~tid:th.tid;
        if th.kind = Mutator && stop_pending t then begin
          (* A mutator waking into a safepoint parks instead: its
             continuation (which may touch the heap) must not interleave
             with stop-the-world collection work. *)
          th.state <- Parked_safepoint;
          th.pending_cycles <- 0
          (* pending_cb already holds the continuation *)
        end
        else begin
          th.state <- Idle;
          th.pending_cb ()
        end
    | Idle | Queued | Parked_safepoint | Parked | Finished -> assert false
  end

(* Shared loop under [run] and [run_until].  [until = Some horizon]
   additionally pauses — returning [None] — once the next event lies
   strictly beyond [horizon]; the event stays queued and a later call
   resumes exactly where this one stopped. *)
let run_general t ~until ~max_events =
  (* a stop may have been requested before the engine started *)
  check_stop_ready t;
  dispatch t;
  let rec loop events_seen =
    match t.aborted with
    | Some reason -> Some (Aborted reason)
    | None ->
        if t.mutators_live = 0 then Some All_mutators_finished
        else if Event_queue.is_empty t.events then
          Some (Aborted "deadlock: no runnable threads or events")
        else if
          match until with
          | Some horizon -> Event_queue.next_time t.events > horizon
          | None -> false
        then None
        else if events_seen >= max_events then Some (Aborted "event budget exhausted")
        else begin
          process_event t (pop_event t);
          check_stop_ready t;
          dispatch t;
          loop (events_seen + 1)
        end
  in
  loop 0

let run t ?(max_events = 50_000_000) () =
  match run_general t ~until:None ~max_events with
  | Some o -> o
  | None -> assert false

let run_until t ~time ?(max_events = 50_000_000) () =
  run_general t ~until:(Some time) ~max_events
