(* The event taxonomy and its integer encoding.

   Every simulation event is encoded as five ints — (time, code, a, b, c) —
   so the spine can record, fold and replay events without allocating.
   Strings (thread names, pause reasons, collector names) never travel in
   events; they are interned once and referenced by id.  This module owns
   the code assignments and the arg-packing conventions; [Obs] owns the
   intern table and the sinks. *)

(* Thread kinds, mirroring [Engine.thread_kind] without depending on the
   engine (the engine depends on us). *)
let mutator_kind = 0
let gc_worker_kind = 1
let num_kinds = 2

let kind_name = function 0 -> "mutator" | 1 -> "gc-worker" | _ -> "unknown"

(* The last three phases belong to reference-counting collectors (LXR):
   applying buffered increments, draining deferred decrements, and the
   backup tracing cycle that reclaims cyclic garbage. *)
type phase =
  | Root_scan
  | Mark
  | Evacuate
  | Update_refs
  | Compact
  | Sweep
  | Rc_increment
  | Decrement_drain
  | Cycle_trace

let num_phases = 9

let phase_index = function
  | Root_scan -> 0
  | Mark -> 1
  | Evacuate -> 2
  | Update_refs -> 3
  | Compact -> 4
  | Sweep -> 5
  | Rc_increment -> 6
  | Decrement_drain -> 7
  | Cycle_trace -> 8

let phase_of_index = function
  | 0 -> Root_scan
  | 1 -> Mark
  | 2 -> Evacuate
  | 3 -> Update_refs
  | 4 -> Compact
  | 5 -> Sweep
  | 6 -> Rc_increment
  | 7 -> Decrement_drain
  | 8 -> Cycle_trace
  | i -> invalid_arg (Printf.sprintf "Event.phase_of_index: %d" i)

let phase_name = function
  | Root_scan -> "root-scan"
  | Mark -> "mark"
  | Evacuate -> "evacuate"
  | Update_refs -> "update-refs"
  | Compact -> "compact"
  | Sweep -> "sweep"
  | Rc_increment -> "rc-increment"
  | Decrement_drain -> "decrement-drain"
  | Cycle_trace -> "cycle-trace"

(* Event codes.  [Step_complete] is by far the hottest (one per engine
   step), so it gets code 0. *)
let code_step_complete = 0
let code_thread_spawn = 1
let code_safepoint_request = 2
let code_pause_begin = 3
let code_pause_end = 4
let code_phase_begin = 5
let code_phase_end = 6
let code_stall_begin = 7
let code_stall_end = 8
let code_alloc_stall_begin = 9
let code_alloc_stall_end = 10
let code_pacing_stall = 11
let code_degeneration = 12
let code_oom = 13
let code_heap_init = 14
let code_region_transition = 15
let code_request_start = 16
let code_request_complete = 17
let code_limit_change = 18

(* Step_complete packs kind and in-pause into [b]: b = kind*2 + stw. *)
let pack_step_flags ~kind ~in_pause = (kind * 2) + if in_pause then 1 else 0
let step_kind_of_flags b = b / 2
let step_in_pause_of_flags b = b land 1 = 1

(* Decoded view of one event.  Only used off the hot path (trace export,
   tests); strings are resolved through a lookup function so [Event] stays
   independent of the intern table. *)
type t =
  | Step_complete of { tid : int; kind : int; cycles : int; in_pause : bool }
  | Thread_spawn of { tid : int; kind : int; name : string }
  | Safepoint_request of { reason : string }
  | Pause_begin of { reason : string }
  | Pause_end of { reason : string; duration : int }
  | Phase_begin of { collector : string; phase : phase; tid : int }
  | Phase_end of { collector : string; phase : phase; tid : int }
  | Stall_begin of { tid : int; wake : int }
  | Stall_end of { tid : int }
  | Alloc_stall_begin of { tid : int }
  | Alloc_stall_end of { tid : int; waited : int }
  | Pacing_stall of { tid : int; cycles : int }
  | Degeneration of { reason : string }
  | Oom of { reason : string }
  | Heap_init of { regions : int; region_words : int }
  | Region_transition of { index : int; from_space : int; to_space : int }
  | Request_start of { index : int; tid : int }
  | Request_complete of { index : int; service : int; metered : int }
  | Limit_change of { regions : int; old_regions : int; controller : string }

let decode ~string_of_id ~code ~a ~b ~c =
  match code with
  | 0 -> Step_complete { tid = a; kind = step_kind_of_flags b;
                         cycles = c; in_pause = step_in_pause_of_flags b }
  | 1 -> Thread_spawn { tid = a; kind = b; name = string_of_id c }
  | 2 -> Safepoint_request { reason = string_of_id a }
  | 3 -> Pause_begin { reason = string_of_id a }
  | 4 -> Pause_end { reason = string_of_id a; duration = b }
  | 5 -> Phase_begin { collector = string_of_id a; phase = phase_of_index b; tid = c }
  | 6 -> Phase_end { collector = string_of_id a; phase = phase_of_index b; tid = c }
  | 7 -> Stall_begin { tid = a; wake = b }
  | 8 -> Stall_end { tid = a }
  | 9 -> Alloc_stall_begin { tid = a }
  | 10 -> Alloc_stall_end { tid = a; waited = b }
  | 11 -> Pacing_stall { tid = a; cycles = b }
  | 12 -> Degeneration { reason = string_of_id a }
  | 13 -> Oom { reason = string_of_id a }
  | 14 -> Heap_init { regions = a; region_words = b }
  | 15 -> Region_transition { index = a; from_space = b; to_space = c }
  | 16 -> Request_start { index = a; tid = b }
  | 17 -> Request_complete { index = a; service = b; metered = c }
  | 18 -> Limit_change { regions = a; old_regions = b; controller = string_of_id c }
  | _ -> invalid_arg (Printf.sprintf "Event.decode: unknown code %d" code)

let pp ~string_of_id ppf (time, code, a, b, c) =
  let ev = decode ~string_of_id ~code ~a ~b ~c in
  let p fmt = Format.fprintf ppf fmt in
  match ev with
  | Step_complete { tid; kind; cycles; in_pause } ->
      p "@%d step tid=%d %s cycles=%d%s" time tid (kind_name kind) cycles
        (if in_pause then " (stw)" else "")
  | Thread_spawn { tid; kind; name } -> p "@%d spawn tid=%d %s %S" time tid (kind_name kind) name
  | Safepoint_request { reason } -> p "@%d safepoint-request %S" time reason
  | Pause_begin { reason } -> p "@%d pause-begin %S" time reason
  | Pause_end { reason; duration } -> p "@%d pause-end %S duration=%d" time reason duration
  | Phase_begin { collector; phase; tid } ->
      p "@%d phase-begin %s/%s tid=%d" time collector (phase_name phase) tid
  | Phase_end { collector; phase; tid } ->
      p "@%d phase-end %s/%s tid=%d" time collector (phase_name phase) tid
  | Stall_begin { tid; wake } -> p "@%d stall-begin tid=%d wake=%d" time tid wake
  | Stall_end { tid } -> p "@%d stall-end tid=%d" time tid
  | Alloc_stall_begin { tid } -> p "@%d alloc-stall-begin tid=%d" time tid
  | Alloc_stall_end { tid; waited } -> p "@%d alloc-stall-end tid=%d waited=%d" time tid waited
  | Pacing_stall { tid; cycles } -> p "@%d pacing-stall tid=%d cycles=%d" time tid cycles
  | Degeneration { reason } -> p "@%d degeneration %S" time reason
  | Oom { reason } -> p "@%d oom %S" time reason
  | Heap_init { regions; region_words } ->
      p "@%d heap-init regions=%d region-words=%d" time regions region_words
  | Region_transition { index; from_space; to_space } ->
      p "@%d region %d: space %d -> %d" time index from_space to_space
  | Request_start { index; tid } -> p "@%d request-start #%d tid=%d" time index tid
  | Request_complete { index; service; metered } ->
      p "@%d request-complete #%d service=%d metered=%d" time index service metered
  | Limit_change { regions; old_regions; controller } ->
      p "@%d limit-change %d -> %d regions (%s)" time old_regions regions controller
