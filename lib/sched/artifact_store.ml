module Tape = Gcr_tape.Tape

type t = { dir : string }

let create ~dir = { dir = Result_cache.dir (Result_cache.create ~dir) }

(* Addressed by a digest of the *recipe* (the tape version string, the
   spec digest, the seed, the thread count).  The content is the
   GCRTAPE1 serialisation, which carries its own checksum: a corrupted
   or truncated artifact fails [Tape.of_string] (or the header
   cross-check below) and reads as a miss. *)

let tape_version = "gcr-tape-v1"

let tape_path t ~spec_digest ~seed ~threads =
  let rendering =
    Printf.sprintf "%s|spec=%s|seed=%d|threads=%d" tape_version spec_digest seed threads
  in
  Filename.concat t.dir (Digest.to_hex (Digest.string rendering) ^ ".tape")

let discard path = if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ())

let find_tape_bytes t ~spec_digest ~seed ~threads =
  let path = tape_path t ~spec_digest ~seed ~threads in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | exception End_of_file ->
      discard path;
      None
  | data -> (
      match Tape.of_string data with
      | Ok tape
        when String.equal tape.Tape.spec_digest spec_digest
             && tape.Tape.seed = seed
             && Array.length tape.Tape.streams = threads ->
          Some data
      | Ok _ | Error _ ->
          discard path;
          None)

(* Temp files are named by pid and a per-process stamp, so concurrent
   publishers never share one. *)
let stamp = ref 0

let store_tape t (tape : Tape.t) =
  let path =
    tape_path t ~spec_digest:tape.Tape.spec_digest ~seed:tape.Tape.seed
      ~threads:(Array.length tape.Tape.streams)
  in
  incr stamp;
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !stamp in
  try
    let oc = open_out_bin tmp in
    output_string oc (Tape.to_string tape);
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())
