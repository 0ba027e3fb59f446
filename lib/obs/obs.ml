module Vec = Gcr_util.Vec
module Ivec = Gcr_util.Ivec
module Histogram = Gcr_util.Histogram

type pause = { start : int; duration : int; reason : string }

(* ------------------------------------------------------------------ *)
(* Counters: the always-on fold over the event stream.                 *)
(* ------------------------------------------------------------------ *)

module Counters = struct
  (* Every field below is a pure function of the event sequence applied so
     far: [apply] is the fold step.  Replaying a recorded trace through a
     fresh [Counters.t] must land on the same state — the differential
     tests rely on this. *)
  type t = {
    mutable kind_cycles : int array;  (** per thread kind *)
    mutable kind_cycles_stw : int array;
    mutable thread_cycles : int array;  (** per tid, grown on spawn *)
    mutable thread_cycles_stw : int array;
    mutable thread_kind : int array;
    thread_names : Ivec.t;  (** name ids, per tid *)
    mutable wall_stw_closed : int;  (** sum over closed pauses *)
    mutable pause_open : bool;
    mutable pause_open_start : int;
    mutable pause_open_reason : int;
    pause_starts : Ivec.t;
    pause_durations : Ivec.t;
    pause_reasons : Ivec.t;  (** string ids *)
    mutable pause_hist : Histogram.t;
    mutable safepoint_requests : int;
    phase_begins : int array;  (** per phase, worker-level *)
    phase_ends : int array;
    mutable stalls : int;
    mutable alloc_stalls : int;
    mutable alloc_stall_waited : int;
    mutable pacing_stalls : int;
    mutable pacing_stall_cycles : int;
    mutable degenerations : int;
    mutable ooms : int;
    mutable heap_regions : int;
    mutable heap_region_words : int;
    mutable region_transitions : int;
    mutable limit_changes : int;
    mutable heap_limit_regions : int;  (** live heap limit, in regions *)
    mutable heap_limit_peak : int;
    mutable limit_region_cycles : int;
        (** time-weighted integral of the limit (region·cycles), accrued up
            to [limit_since]; {!footprint_region_cycles} closes it at [now] *)
    mutable limit_since : int;
    mutable latency_metered : Histogram.t;
    mutable latency_simple : Histogram.t;
    mutable requests_started : int;
    mutable requests_completed : int;
  }

  let create () =
    {
      kind_cycles = Array.make Event.num_kinds 0;
      kind_cycles_stw = Array.make Event.num_kinds 0;
      thread_cycles = [||];
      thread_cycles_stw = [||];
      thread_kind = [||];
      thread_names = Ivec.create ();
      wall_stw_closed = 0;
      pause_open = false;
      pause_open_start = 0;
      pause_open_reason = 0;
      pause_starts = Ivec.create ();
      pause_durations = Ivec.create ();
      pause_reasons = Ivec.create ();
      pause_hist = Histogram.create ();
      safepoint_requests = 0;
      phase_begins = Array.make Event.num_phases 0;
      phase_ends = Array.make Event.num_phases 0;
      stalls = 0;
      alloc_stalls = 0;
      alloc_stall_waited = 0;
      pacing_stalls = 0;
      pacing_stall_cycles = 0;
      degenerations = 0;
      ooms = 0;
      heap_regions = 0;
      heap_region_words = 0;
      region_transitions = 0;
      limit_changes = 0;
      heap_limit_regions = 0;
      heap_limit_peak = 0;
      limit_region_cycles = 0;
      limit_since = 0;
      latency_metered = Histogram.create ();
      latency_simple = Histogram.create ();
      requests_started = 0;
      requests_completed = 0;
    }

  (* Rewind to the post-[create] state, keeping grown array capacities.
     The three histograms are REPLACED, not cleared: [Measurement.of_obs]
     captures them by reference, so mutating them in place would
     retroactively corrupt the previous run's measurement. *)
  let reset t =
    Array.fill t.kind_cycles 0 (Array.length t.kind_cycles) 0;
    Array.fill t.kind_cycles_stw 0 (Array.length t.kind_cycles_stw) 0;
    Array.fill t.thread_cycles 0 (Array.length t.thread_cycles) 0;
    Array.fill t.thread_cycles_stw 0 (Array.length t.thread_cycles_stw) 0;
    Array.fill t.thread_kind 0 (Array.length t.thread_kind) 0;
    Ivec.clear t.thread_names;
    t.wall_stw_closed <- 0;
    t.pause_open <- false;
    t.pause_open_start <- 0;
    t.pause_open_reason <- 0;
    Ivec.clear t.pause_starts;
    Ivec.clear t.pause_durations;
    Ivec.clear t.pause_reasons;
    t.pause_hist <- Histogram.create ();
    t.safepoint_requests <- 0;
    Array.fill t.phase_begins 0 (Array.length t.phase_begins) 0;
    Array.fill t.phase_ends 0 (Array.length t.phase_ends) 0;
    t.stalls <- 0;
    t.alloc_stalls <- 0;
    t.alloc_stall_waited <- 0;
    t.pacing_stalls <- 0;
    t.pacing_stall_cycles <- 0;
    t.degenerations <- 0;
    t.ooms <- 0;
    t.heap_regions <- 0;
    t.heap_region_words <- 0;
    t.region_transitions <- 0;
    t.limit_changes <- 0;
    t.heap_limit_regions <- 0;
    t.heap_limit_peak <- 0;
    t.limit_region_cycles <- 0;
    t.limit_since <- 0;
    t.latency_metered <- Histogram.create ();
    t.latency_simple <- Histogram.create ();
    t.requests_started <- 0;
    t.requests_completed <- 0

  let grow_threads t tid =
    let cap = Array.length t.thread_cycles in
    if tid >= cap then begin
      let cap' = max 8 (max (tid + 1) (2 * cap)) in
      let grow a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 cap; a' in
      t.thread_cycles <- grow t.thread_cycles;
      t.thread_cycles_stw <- grow t.thread_cycles_stw;
      t.thread_kind <- grow t.thread_kind
    end

  (* The fold step.  The [Step_complete] arm is the engine's per-step hot
     path: four array updates, no allocation. *)
  let apply t ~time ~code ~a ~b ~c =
    if code = Event.code_step_complete then begin
      let tid = a and cycles = c in
      let kind = Event.step_kind_of_flags b in
      t.thread_cycles.(tid) <- t.thread_cycles.(tid) + cycles;
      t.kind_cycles.(kind) <- t.kind_cycles.(kind) + cycles;
      if b land 1 = 1 then begin
        t.thread_cycles_stw.(tid) <- t.thread_cycles_stw.(tid) + cycles;
        t.kind_cycles_stw.(kind) <- t.kind_cycles_stw.(kind) + cycles
      end
    end
    else
      match code with
      | 1 (* thread-spawn *) ->
          grow_threads t a;
          t.thread_kind.(a) <- b;
          while Ivec.length t.thread_names <= a do
            Ivec.push t.thread_names (-1)
          done;
          Ivec.set t.thread_names a c
      | 2 (* safepoint-request *) -> t.safepoint_requests <- t.safepoint_requests + 1
      | 3 (* pause-begin *) ->
          t.pause_open <- true;
          t.pause_open_start <- time;
          t.pause_open_reason <- a
      | 4 (* pause-end *) ->
          let duration = time - t.pause_open_start in
          t.pause_open <- false;
          t.wall_stw_closed <- t.wall_stw_closed + duration;
          Ivec.push t.pause_starts t.pause_open_start;
          Ivec.push t.pause_durations duration;
          Ivec.push t.pause_reasons a;
          Histogram.record t.pause_hist duration
      | 5 (* phase-begin *) -> t.phase_begins.(b) <- t.phase_begins.(b) + 1
      | 6 (* phase-end *) -> t.phase_ends.(b) <- t.phase_ends.(b) + 1
      | 7 (* stall-begin *) -> t.stalls <- t.stalls + 1
      | 8 (* stall-end *) -> ()
      | 9 (* alloc-stall-begin *) -> t.alloc_stalls <- t.alloc_stalls + 1
      | 10 (* alloc-stall-end *) -> t.alloc_stall_waited <- t.alloc_stall_waited + b
      | 11 (* pacing-stall *) ->
          t.pacing_stalls <- t.pacing_stalls + 1;
          t.pacing_stall_cycles <- t.pacing_stall_cycles + b
      | 12 (* degeneration *) -> t.degenerations <- t.degenerations + 1
      | 13 (* oom *) -> t.ooms <- t.ooms + 1
      | 14 (* heap-init *) ->
          t.heap_regions <- a;
          t.heap_region_words <- b;
          t.limit_region_cycles <-
            t.limit_region_cycles + (t.heap_limit_regions * (time - t.limit_since));
          t.heap_limit_regions <- a;
          t.heap_limit_peak <- max t.heap_limit_peak a;
          t.limit_since <- time
      | 15 (* region-transition *) -> t.region_transitions <- t.region_transitions + 1
      | 16 (* request-start *) -> t.requests_started <- t.requests_started + 1
      | 17 (* request-complete *) ->
          t.requests_completed <- t.requests_completed + 1;
          Histogram.record t.latency_simple b;
          Histogram.record t.latency_metered c
      | 18 (* limit-change *) ->
          t.limit_changes <- t.limit_changes + 1;
          t.heap_regions <- a;
          t.limit_region_cycles <-
            t.limit_region_cycles + (t.heap_limit_regions * (time - t.limit_since));
          t.heap_limit_regions <- a;
          t.heap_limit_peak <- max t.heap_limit_peak a;
          t.limit_since <- time
      | _ -> invalid_arg (Printf.sprintf "Obs.Counters.apply: unknown code %d" code)

  (* Wall time inside pauses, counting the currently open pause (if any) up
     to [now] — an aborted run's partial pause still costs wall time. *)
  let wall_stw t ~now =
    t.wall_stw_closed + if t.pause_open then now - t.pause_open_start else 0

  (* Memory·time integral of the heap limit (region·cycles), the accrued
     sum closed at [now] — the live-footprint cost a sizing controller is
     trying to shrink. *)
  let footprint_region_cycles t ~now =
    t.limit_region_cycles + (t.heap_limit_regions * (now - t.limit_since))

  (* Flattened scalar view for differential tests: replaying a trace must
     reproduce the same fingerprint as the online fold. *)
  let fingerprint t ~now =
    let hist h =
      [ Histogram.count h; Histogram.total h; Histogram.max_value h ]
    in
    List.concat
      [
        Array.to_list t.kind_cycles;
        Array.to_list t.kind_cycles_stw;
        Array.to_list t.thread_cycles;
        Array.to_list t.thread_cycles_stw;
        [ wall_stw t ~now; t.safepoint_requests ];
        [ Ivec.length t.pause_starts;
          Ivec.fold ( + ) 0 t.pause_durations;
          Ivec.fold ( + ) 0 t.pause_starts ];
        hist t.pause_hist;
        Array.to_list t.phase_begins;
        Array.to_list t.phase_ends;
        [ t.stalls; t.alloc_stalls; t.alloc_stall_waited;
          t.pacing_stalls; t.pacing_stall_cycles; t.degenerations; t.ooms;
          t.heap_regions; t.heap_region_words; t.region_transitions ];
        [ t.limit_changes; t.heap_limit_regions; t.heap_limit_peak;
          footprint_region_cycles t ~now ];
        hist t.latency_metered;
        hist t.latency_simple;
        [ t.requests_started; t.requests_completed ];
      ]
end

(* ------------------------------------------------------------------ *)
(* Subscribers and the full-trace sink.                                *)
(* ------------------------------------------------------------------ *)

type subscriber = {
  sub_name : string;
  on_event : time:int -> code:int -> a:int -> b:int -> c:int -> unit;
}

module Trace = struct
  (* Flat int buffer, five slots per event.  Appending is a bounds check
     and five stores — attaching a trace keeps emission allocation-free
     between grows. *)
  type t = { mutable buf : int array; mutable len : int }

  let record_width = 5

  let create ?(capacity_events = 4096) () =
    { buf = Array.make (record_width * max 1 capacity_events) 0; len = 0 }

  let length t = t.len / record_width

  let append t ~time ~code ~a ~b ~c =
    let cap = Array.length t.buf in
    if t.len + record_width > cap then begin
      let buf = Array.make (2 * cap) 0 in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    let i = t.len in
    t.buf.(i) <- time;
    t.buf.(i + 1) <- code;
    t.buf.(i + 2) <- a;
    t.buf.(i + 3) <- b;
    t.buf.(i + 4) <- c;
    t.len <- i + record_width

  let iter t f =
    let i = ref 0 in
    while !i < t.len do
      let j = !i in
      f ~time:t.buf.(j) ~code:t.buf.(j + 1) ~a:t.buf.(j + 2) ~b:t.buf.(j + 3)
        ~c:t.buf.(j + 4);
      i := j + record_width
    done

  let replay t =
    let counters = Counters.create () in
    iter t (fun ~time ~code ~a ~b ~c -> Counters.apply counters ~time ~code ~a ~b ~c);
    counters
end

(* ------------------------------------------------------------------ *)
(* The spine.                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  counters : Counters.t;
  strings : string Vec.t;
  string_ids : (string, int) Hashtbl.t;
  mutable clock : unit -> int;
  mutable subs : subscriber array;
  mutable nsubs : int;
}

let create () =
  {
    counters = Counters.create ();
    strings = Vec.create ();
    string_ids = Hashtbl.create 64;
    clock = (fun () -> 0);
    subs = [||];
    nsubs = 0;
  }

let counters t = t.counters

(* Rewind the whole spine for the next run of a warm worker: counters,
   the string intern table, and — critically — the subscriber list, so a
   previous run's pause probes and trace sinks cannot fire into the next
   run.  The clock is left wired: the engine that owns this spine resets
   its own clock to zero and the closure identity stays valid. *)
let reset t =
  Counters.reset t.counters;
  Vec.clear t.strings;
  Hashtbl.reset t.string_ids;
  t.subs <- [||];
  t.nsubs <- 0

let set_clock t f = t.clock <- f

let now t = t.clock ()

let intern t s =
  match Hashtbl.find_opt t.string_ids s with
  | Some id -> id
  | None ->
      let id = Vec.length t.strings in
      Vec.push t.strings s;
      Hashtbl.add t.string_ids s id;
      id

let string_of_id t id = if id < 0 then "" else Vec.get t.strings id

let subscribe t sub =
  let subs = Array.make (t.nsubs + 1) sub in
  Array.blit t.subs 0 subs 0 t.nsubs;
  t.subs <- subs;
  t.nsubs <- t.nsubs + 1

let attach_trace ?capacity_events t =
  let tr = Trace.create ?capacity_events () in
  subscribe t
    {
      sub_name = "trace";
      on_event = (fun ~time ~code ~a ~b ~c -> Trace.append tr ~time ~code ~a ~b ~c);
    };
  tr

let tracing t = t.nsubs > 0

(* One dispatch point: fold into the counters, then fan out.  [t.nsubs] is
   0 in ordinary runs, so the subscriber loop costs one load + branch. *)
let[@inline] emit t ~time ~code ~a ~b ~c =
  Counters.apply t.counters ~time ~code ~a ~b ~c;
  if t.nsubs > 0 then
    for i = 0 to t.nsubs - 1 do
      t.subs.(i).on_event ~time ~code ~a ~b ~c
    done

(* ---------- typed emitters ---------- *)

let step_complete t ~time ~tid ~kind ~cycles ~in_pause =
  emit t ~time ~code:Event.code_step_complete ~a:tid
    ~b:(Event.pack_step_flags ~kind ~in_pause) ~c:cycles

let thread_spawn t ~time ~tid ~kind ~name =
  emit t ~time ~code:Event.code_thread_spawn ~a:tid ~b:kind ~c:(intern t name)

let safepoint_request t ~time ~reason_id =
  emit t ~time ~code:Event.code_safepoint_request ~a:reason_id ~b:0 ~c:0

let pause_begin t ~time ~reason_id =
  emit t ~time ~code:Event.code_pause_begin ~a:reason_id ~b:0 ~c:0

let pause_end t ~time ~reason_id =
  let duration = time - t.counters.Counters.pause_open_start in
  emit t ~time ~code:Event.code_pause_end ~a:reason_id ~b:duration ~c:0

let phase_begin t ~time ~collector_id ~phase ~tid =
  emit t ~time ~code:Event.code_phase_begin ~a:collector_id
    ~b:(Event.phase_index phase) ~c:tid

let phase_end t ~time ~collector_id ~phase ~tid =
  emit t ~time ~code:Event.code_phase_end ~a:collector_id
    ~b:(Event.phase_index phase) ~c:tid

let stall_begin t ~time ~tid ~wake =
  emit t ~time ~code:Event.code_stall_begin ~a:tid ~b:wake ~c:0

let stall_end t ~time ~tid = emit t ~time ~code:Event.code_stall_end ~a:tid ~b:0 ~c:0

let alloc_stall_begin t ~time ~tid =
  emit t ~time ~code:Event.code_alloc_stall_begin ~a:tid ~b:0 ~c:0

let alloc_stall_end t ~time ~tid ~waited =
  emit t ~time ~code:Event.code_alloc_stall_end ~a:tid ~b:waited ~c:0

let pacing_stall t ~time ~tid ~cycles =
  emit t ~time ~code:Event.code_pacing_stall ~a:tid ~b:cycles ~c:0

let degeneration t ~time ~reason_id =
  emit t ~time ~code:Event.code_degeneration ~a:reason_id ~b:0 ~c:0

let oom t ~time ~reason_id = emit t ~time ~code:Event.code_oom ~a:reason_id ~b:0 ~c:0

let heap_init t ~time ~regions ~region_words =
  emit t ~time ~code:Event.code_heap_init ~a:regions ~b:region_words ~c:0

let region_transition t ~time ~index ~from_space ~to_space =
  emit t ~time ~code:Event.code_region_transition ~a:index ~b:from_space ~c:to_space

let request_start t ~time ~index ~tid =
  emit t ~time ~code:Event.code_request_start ~a:index ~b:tid ~c:0

let request_complete t ~time ~index ~service ~metered =
  emit t ~time ~code:Event.code_request_complete ~a:index ~b:service ~c:metered

let limit_change t ~time ~regions ~old_regions ~controller_id =
  emit t ~time ~code:Event.code_limit_change ~a:regions ~b:old_regions ~c:controller_id

(* ---------- derived views ---------- *)

let wall_stw t ~now = Counters.wall_stw t.counters ~now

let cycles_of_kind t kind = t.counters.Counters.kind_cycles.(kind)

let cycles_stw_of_kind t kind = t.counters.Counters.kind_cycles_stw.(kind)

let cycles_of_thread t tid =
  let c = t.counters in
  if tid < Array.length c.Counters.thread_cycles then c.Counters.thread_cycles.(tid) else 0

let pause_count t = Ivec.length t.counters.Counters.pause_starts

let pause_histogram t = t.counters.Counters.pause_hist

let iter_pauses t f =
  let c = t.counters in
  for i = 0 to Ivec.length c.Counters.pause_starts - 1 do
    f ~start:(Ivec.get c.Counters.pause_starts i)
      ~duration:(Ivec.get c.Counters.pause_durations i)
      ~reason:(string_of_id t (Ivec.get c.Counters.pause_reasons i))
  done

let pauses t =
  let acc = ref [] in
  iter_pauses t (fun ~start ~duration ~reason -> acc := { start; duration; reason } :: !acc);
  List.rev !acc

let latency_metered t = t.counters.Counters.latency_metered

let latency_simple t = t.counters.Counters.latency_simple

let limit_changes t = t.counters.Counters.limit_changes

let heap_limit_regions t = t.counters.Counters.heap_limit_regions

let heap_region_words t = t.counters.Counters.heap_region_words

let heap_limit_peak_regions t = t.counters.Counters.heap_limit_peak

let footprint_region_cycles t ~now =
  Counters.footprint_region_cycles t.counters ~now

let decode_event t ~code ~a ~b ~c =
  Event.decode ~string_of_id:(string_of_id t) ~code ~a ~b ~c

let fingerprint t ~now = Counters.fingerprint t.counters ~now
