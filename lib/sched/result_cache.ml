module Measurement = Gcr_runtime.Measurement
module Run = Gcr_runtime.Run

(* v4: a log is this magic, then records.  A record is a header — the
   MD5 of the key rendering (16 bytes), the body length (8 bytes,
   big-endian) and the MD5 of the body (16 bytes) — then the body, the
   marshalled (rendering, measurement).  The body digest is checked
   before [Marshal.from_string] ever sees the bytes — Marshal on
   corrupted input is not merely exception-unsafe, it can segfault — so
   any corruption anywhere in a record reads as a miss and re-executes.
   v1–v3 kept one [.run] file per entry; those files are never read. *)
let magic = "GCR-RESULT-LOG-4\n"

let header_bytes = 40

type key = { rendering : string; digest : string }

let key config =
  Option.map
    (fun rendering -> { rendering; digest = Digest.string rendering })
    (Cache_key.render config)

(* Where one record's body lies.  The index holds locations, never
   bodies, so it stays small however much the directory holds. *)
type loc = { log : string; off : int; len : int; body_digest : string }

type writer =
  | Unopened
  | Appending of { pid : int; fd : Unix.file_descr; path : string }
  | Gave_up of int  (** the pid whose create or write failed *)

type t = {
  dir : string;
  mutable index : (string, loc list) Hashtbl.t option;
      (** key digest -> records, newest first; built on the first lookup *)
  mutable writer : writer;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let close_writer t =
  match t.writer with
  | Appending { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Unopened | Gave_up _ -> ()

let create ~dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let t = { dir; index = None; writer = Unopened } in
  Gc.finalise close_writer t;
  t

let dir t = t.dir

let add index digest loc =
  Hashtbl.replace index digest
    (loc :: Option.value (Hashtbl.find_opt index digest) ~default:[])

(* Headers only: a body is skipped, not read.  A log ends at its first
   record that does not fit in the file — a torn last record, or one
   another process is still writing. *)
let scan_log index log =
  match open_in_bin log with
  | exception Sys_error _ -> ()
  | ic ->
      let size = in_channel_length ic in
      let m = String.length magic in
      let rec records pos =
        if pos + header_bytes <= size then begin
          let header = really_input_string ic header_bytes in
          let off = pos + header_bytes in
          let len = Int64.to_int (String.get_int64_be header 16) in
          if len >= 0 && len <= size - off then begin
            add index (String.sub header 0 16)
              { log; off; len; body_digest = String.sub header 24 16 };
            seek_in ic (off + len);
            records (off + len)
          end
        end
      in
      (try if size >= m && String.equal (really_input_string ic m) magic then records m
       with End_of_file | Sys_error _ -> ());
      close_in_noerr ic

let index t =
  match t.index with
  | Some index -> index
  | None ->
      let index = Hashtbl.create 1024 in
      (match Sys.readdir t.dir with
      | exception Sys_error _ -> ()
      | files ->
          Array.iter
            (fun f ->
              if Filename.check_suffix f ".log" then scan_log index (Filename.concat t.dir f))
            files);
      t.index <- Some index;
      index

(* Exactly the body's bytes: a buffered channel would read a whole
   64 KiB buffer for a body of a few KiB. *)
let read_body loc =
  match Unix.openfile loc.log [ Unix.O_RDONLY; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      let body = Bytes.create loc.len in
      let rec fill pos =
        pos = loc.len
        ||
        let n = Unix.read fd body pos (loc.len - pos) in
        n > 0 && fill (pos + n)
      in
      let complete =
        try Unix.lseek fd loc.off Unix.SEEK_SET = loc.off && fill 0
        with Unix.Unix_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if complete then Some (Bytes.unsafe_to_string body) else None

let decode key loc =
  match read_body loc with
  | Some body when String.equal (Digest.string body) loc.body_digest -> (
      (* the digest vouches for every byte Marshal will touch *)
      match (Marshal.from_string body 0 : string * Measurement.t) with
      | rendering, measurement when String.equal rendering key.rendering -> Some measurement
      | _ -> None
      | exception _ -> None)
  | Some _ | None -> None

let find t key =
  let index = index t in
  let rec first = function
    | [] ->
        Hashtbl.remove index key.digest;
        None
    | loc :: rest -> (
        match decode key loc with
        | Some _ as hit -> hit
        | None ->
            (* a bad record leaves the index: the cell re-runs *)
            Hashtbl.replace index key.digest rest;
            first rest)
  in
  match Hashtbl.find_opt index key.digest with None -> None | Some locs -> first locs

(* Per-process stamps name this process's logs; the pid keeps a forked
   child, which inherits the counter, from naming its parent's, and
   [O_EXCL] skips a name a dead process with a recycled pid left. *)
let stamp = ref 0

let open_log t ~pid =
  let rec attempt tries =
    incr stamp;
    let path = Filename.concat t.dir (Printf.sprintf "%d-%d.log" pid !stamp) in
    match
      Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_EXCL; O_APPEND; O_CLOEXEC ] 0o644
    with
    | fd -> (
        match Unix.write_substring fd magic 0 (String.length magic) with
        | _ -> Appending { pid; fd; path }
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Gave_up pid)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 1 -> attempt (tries - 1)
    | exception Unix.Unix_error _ -> Gave_up pid
  in
  attempt 1000

(* The log this process appends to, created on its first store.  A
   handle inherited across [fork] still holds the parent's descriptor:
   the child closes its copy and opens a log of its own. *)
let writer t =
  let pid = Unix.getpid () in
  (match t.writer with
  | Appending w when w.pid = pid -> ()
  | Gave_up p when p = pid -> ()
  | Unopened | Appending _ | Gave_up _ ->
      close_writer t;
      t.writer <- open_log t ~pid);
  match t.writer with
  | Appending { fd; path; _ } -> Some (fd, path)
  | Unopened | Gave_up _ -> None

let store t key measurement =
  match writer t with
  | None -> ()
  | Some (fd, log) -> (
      let body = Marshal.to_string ((key.rendering, measurement) : string * Measurement.t) [] in
      let len = String.length body and body_digest = Digest.string body in
      let record = Bytes.create (header_bytes + len) in
      Bytes.blit_string key.digest 0 record 0 16;
      Bytes.set_int64_be record 16 (Int64.of_int len);
      Bytes.blit_string body_digest 0 record 24 16;
      Bytes.blit_string body 0 record header_bytes len;
      match
        if Unix.write fd record 0 (Bytes.length record) < Bytes.length record then None
        else Some (Unix.lseek fd 0 Unix.SEEK_CUR)
      with
      | Some log_end ->
          (* the body ends where the log now ends *)
          Option.iter
            (fun index -> add index key.digest { log; off = log_end - len; len; body_digest })
            t.index
      | None | (exception Unix.Unix_error _) ->
          (* never append after a torn record *)
          close_writer t;
          t.writer <- Gave_up (Unix.getpid ()))
