(** Chrome trace-event JSON export of a recorded event stream, loadable in
    ui.perfetto.dev: one track per simulated thread (phase and stall
    slices), a safepoint track (pause slices, degeneration/OOM instants),
    per-mutator request tracks, and a free-region counter.  Timestamps are
    microseconds of simulated time. *)

val write_buffer : Obs.t -> Obs.Trace.t -> Buffer.t

val write_channel : out_channel -> Obs.t -> Obs.Trace.t -> unit

val write_file : string -> Obs.t -> Obs.Trace.t -> unit

type summary = {
  events : int;
  pause_slices : int;
  phase_slices : int;
  begins : int;
  ends : int;
}

val validate_string : string -> (summary, string) result
(** Check that the trace text parses as JSON and that every track's
    begin/end slice events balance. *)

val validate_file : string -> (summary, string) result
(** {!validate_string} on a file's contents; [Error] too when the file
    cannot be read. *)
