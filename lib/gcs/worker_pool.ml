module Engine = Gcr_engine.Engine
module Cost_model = Gcr_mach.Cost_model
module Obs = Gcr_obs.Obs
module Event = Gcr_obs.Event

(* The running phase lives in the record ([phase], [work], [on_done]), and
   each worker's pull and finish continuations are built once per pool and
   read it, so starting a phase or a slice allocates nothing here. *)
type t = {
  engine : Engine.t;
  name : string;
  collector_id : int;  (** interned pool name, tagging phase events *)
  obs : Obs.t;
  threads : Engine.thread array;
  termination : int;
      (** cycles of the logarithmic termination barrier each worker passes *)
  dispatch_cost : int;
  mutable active : int;  (** workers still pulling slices in this phase *)
  mutable phase_running : bool;
  mutable phase : Event.phase;
  mutable work : worker:int -> int;
  mutable on_done : unit -> unit;
  mutable pulls : (unit -> unit) array;  (** per worker *)
}

let no_work ~worker:_ = 0

let nop () = ()

let finish t worker () =
  let th = t.threads.(worker) in
  Obs.phase_end t.obs ~time:(Engine.now t.engine) ~collector_id:t.collector_id ~phase:t.phase
    ~tid:(Engine.thread_id th);
  Engine.park t.engine th;
  t.active <- t.active - 1;
  if t.active = 0 then begin
    t.phase_running <- false;
    t.on_done ()
  end

(* Pull a slice and run it, or pass the termination barrier and park until
   the next phase. *)
let pull t worker finish () =
  let th = t.threads.(worker) in
  let cost = t.work ~worker in
  if cost > 0 then Engine.submit t.engine th ~cycles:(cost + t.dispatch_cost) t.pulls.(worker)
  else Engine.submit t.engine th ~cycles:t.termination finish

let create ctx ~count ~name =
  if count < 1 then invalid_arg "Worker_pool.create: count < 1";
  let engine = ctx.Gc_types.engine in
  let spawn i =
    let th =
      Engine.spawn engine ~kind:Engine.Gc_worker ~name:(Printf.sprintf "%s-worker-%d" name i)
    in
    Engine.park engine th;
    th
  in
  let obs = Engine.obs engine in
  let t =
    {
      engine;
      name;
      collector_id = Obs.intern obs name;
      obs;
      threads = Array.init count spawn;
      termination =
        ctx.Gc_types.cost.Cost_model.termination_per_worker
        * Cost_model.log2_ceil (max 2 count);
      dispatch_cost = ctx.Gc_types.cost.Cost_model.gc_task_dispatch;
      active = 0;
      phase_running = false;
      phase = Event.Mark;
      work = no_work;
      on_done = nop;
      pulls = [||];
    }
  in
  t.pulls <- Array.init count (fun worker -> pull t worker (finish t worker));
  t

let count t = Array.length t.threads

let name t = t.name

let busy t = t.phase_running

let run_phase t ~phase ~work ~on_done =
  if t.phase_running then invalid_arg "Worker_pool.run_phase: phase already running";
  t.phase_running <- true;
  t.active <- count t;
  t.phase <- phase;
  t.work <- work;
  t.on_done <- on_done;
  for i = 0 to count t - 1 do
    Obs.phase_begin t.obs ~time:(Engine.now t.engine) ~collector_id:t.collector_id ~phase
      ~tid:(Engine.thread_id t.threads.(i))
  done;
  for i = 0 to count t - 1 do
    Engine.resume t.engine t.threads.(i) t.pulls.(i)
  done

let rec run_phases t phases ~on_done =
  match phases with
  | [] -> on_done ()
  | (phase, work) :: rest ->
      run_phase t ~phase ~work ~on_done:(fun () -> run_phases t rest ~on_done)
