module Spec = Gcr_workloads.Spec
module Tape = Gcr_tape.Tape

type t = { dir : string; results : Result_cache.t }

let create ~dir =
  let results = Result_cache.create ~dir in
  { dir = Result_cache.dir results; results }

let of_env () =
  match Result_cache.of_env () with
  | None -> None
  | Some results -> Some { dir = Result_cache.dir results; results }

let dir t = t.dir

let results t = t.results

(* --- Results: the existing digest scheme, delegated. --- *)

let find_result t config = Result_cache.find t.results config

let store_result t config measurement = Result_cache.store t.results config measurement

(* --- Tapes. ---

   Addressed by a digest of the *recipe* (the tape version string, the
   spec digest, the seed, the thread count) — exactly how result entries
   are addressed by a digest of the run config rendering — so a consumer
   can look a tape up before anyone has generated it.  The content is the
   GCRTAPE1 serialisation, which carries its own checksum: a corrupted or
   truncated artifact fails [Tape.of_string] (or the header cross-check
   below) and reads as a miss, never as a wrong decision stream. *)

let tape_version = "gcr-tape-v1"

let tape_rendering ~spec_digest ~seed ~threads =
  Printf.sprintf "%s|spec=%s|seed=%d|threads=%d" tape_version spec_digest seed threads

let tape_path t ~spec_digest ~seed ~threads =
  let digest =
    Digest.to_hex (Digest.string (tape_rendering ~spec_digest ~seed ~threads))
  in
  Filename.concat t.dir (digest ^ ".tape")

let discard path = if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ())

(* Per-process memo of {e verified} tapes, keyed by artifact path: a
   worker that just published a tape (or fetched and checksummed it once)
   serves the next sibling group from memory instead of re-reading and
   re-hashing the file.  Bounded LRU, newest first.  Trust is strictly
   per process — a cold reader still verifies the bytes on disk, so
   corruption still degrades to a clean miss for everyone who has not
   proven the artifact themselves. *)
let memo_capacity = 8

let memo_lock = Mutex.create ()

let memo : (string * Tape.t) list ref = ref []

let memo_find path =
  Mutex.protect memo_lock (fun () ->
      match List.assoc_opt path !memo with
      | None -> None
      | Some tape ->
          memo := (path, tape) :: List.remove_assoc path !memo;
          Some tape)

let memo_add path tape =
  Mutex.protect memo_lock (fun () ->
      let rest = List.remove_assoc path !memo in
      let rest = List.filteri (fun i _ -> i < memo_capacity - 1) rest in
      memo := (path, tape) :: rest)

let memo_drop path =
  Mutex.protect memo_lock (fun () -> memo := List.remove_assoc path !memo)

let find_tape t ~(spec : Spec.t) ~seed =
  let spec_digest = Spec.digest spec in
  let threads = spec.Spec.mutator_threads in
  let path = tape_path t ~spec_digest ~seed ~threads in
  match memo_find path with
  | Some tape -> Some tape
  | None ->
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
      | Error _ ->
          (* checksum or structure failure: drop the artifact so the next
             writer heals it *)
          discard path;
          None
      | Ok tape ->
          (* the checksum proves integrity; the header cross-check proves
             the artifact is the tape this address promises (a renamed or
             hash-colliding file is equally untrusted) *)
          if
            String.equal tape.Tape.spec_digest spec_digest
            && tape.Tape.seed = seed
            && Array.length tape.Tape.streams = threads
          then begin
            memo_add path tape;
            Some tape
          end
          else begin
            discard path;
            memo_drop path;
            None
          end)

(* Raw-bytes access for the fabric's wire tape fetch/publish: the
   coordinator serves verified GCRTAPE1 bytes to storeless workers and
   accepts published bytes back, applying exactly the
   digest-verify-on-read discipline of [find_tape]/[store_tape] — bytes
   that fail the checksum or the header cross-check degrade to a miss
   (or a rejected publish), never to a wrong stream on either end. *)

let check_bytes ~spec_digest ~seed ~threads data =
  match Tape.of_string data with
  | Error _ -> None
  | Ok tape ->
      if
        String.equal tape.Tape.spec_digest spec_digest
        && tape.Tape.seed = seed
        && Array.length tape.Tape.streams = threads
      then Some tape
      else None

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
      match check_bytes ~spec_digest ~seed ~threads data with
      | Some _ -> Some data
      | None ->
          discard path;
          memo_drop path;
          None)

(* Temp files are named by pid and a per-process stamp (forked workers
   inherit the stamp), so concurrent publishers never share one. *)
let stamp = ref 0

(* [data] is [tape]'s own bytes — generated or already verified by the
   caller — so the memo can hold the tape without a read-back. *)
let write_tape_file t data (tape : Tape.t) =
  let path =
    tape_path t ~spec_digest:tape.Tape.spec_digest ~seed:tape.Tape.seed
      ~threads:(Array.length tape.Tape.streams)
  in
  incr stamp;
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !stamp in
  try
    let oc = open_out_bin tmp in
    output_string oc data;
    close_out oc;
    Sys.rename tmp path;
    memo_add path tape
  with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())

let store_tape_bytes t data =
  match Tape.of_string data with
  | Error e -> Error e
  | Ok tape ->
      write_tape_file t data tape;
      Ok ()

let store_tape t tape = write_tape_file t (Tape.to_string tape) tape
