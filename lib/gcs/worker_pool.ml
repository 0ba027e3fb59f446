module Engine = Gcr_engine.Engine
module Cost_model = Gcr_mach.Cost_model
module Obs = Gcr_obs.Obs
module Event = Gcr_obs.Event

type t = {
  ctx : Gc_types.ctx;
  name : string;
  collector_id : int;  (** interned pool name, tagging phase events *)
  obs : Obs.t;
  threads : Engine.thread array;
  termination : int;
      (** cycles of the logarithmic termination barrier each worker passes *)
  mutable active : int;  (** workers still pulling slices in this phase *)
  mutable phase_running : bool;
}

let create ctx ~count ~name =
  if count < 1 then invalid_arg "Worker_pool.create: count < 1";
  let spawn i =
    let th =
      Engine.spawn ctx.Gc_types.engine ~kind:Engine.Gc_worker
        ~name:(Printf.sprintf "%s-worker-%d" name i)
    in
    Engine.park ctx.Gc_types.engine th;
    th
  in
  let obs = Engine.obs ctx.Gc_types.engine in
  {
    ctx;
    name;
    collector_id = Obs.intern obs name;
    obs;
    threads = Array.init count spawn;
    termination =
      ctx.Gc_types.cost.Cost_model.termination_per_worker
      * Cost_model.log2_ceil (max 2 count);
    active = 0;
    phase_running = false;
  }

let count t = Array.length t.threads

let name t = t.name

let busy t = t.phase_running

(* Each worker's pull and finish continuations are built once per phase
   and resubmitted for every slice, so a slice allocates nothing here. *)
let run_phase t ~phase ~work ~on_done =
  if t.phase_running then invalid_arg "Worker_pool.run_phase: phase already running";
  t.phase_running <- true;
  t.active <- count t;
  let engine = t.ctx.Gc_types.engine in
  let dispatch_cost = t.ctx.Gc_types.cost.Cost_model.gc_task_dispatch in
  let start worker th =
    let finish () =
      Obs.phase_end t.obs ~time:(Engine.now engine) ~collector_id:t.collector_id ~phase
        ~tid:(Engine.thread_id th);
      Engine.park engine th;
      t.active <- t.active - 1;
      if t.active = 0 then begin
        t.phase_running <- false;
        on_done ()
      end
    in
    let rec pull () =
      let cost = work ~worker in
      if cost > 0 then Engine.submit engine th ~cycles:(cost + dispatch_cost) pull
      else
        (* Termination barrier, then park until the next phase. *)
        Engine.submit engine th ~cycles:t.termination finish
    in
    Engine.resume engine th pull
  in
  Array.iter
    (fun th ->
      Obs.phase_begin t.obs ~time:(Engine.now engine) ~collector_id:t.collector_id ~phase
        ~tid:(Engine.thread_id th))
    t.threads;
  Array.iteri start t.threads

let rec run_phases t phases ~on_done =
  match phases with
  | [] -> on_done ()
  | (phase, work) :: rest ->
      run_phase t ~phase ~work ~on_done:(fun () -> run_phases t rest ~on_done)
