module Wire = Gcr_tape.Wire

exception Corrupt of string

exception Timeout

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Room for the largest frame the fabric sends, a batch of up to 32
   measurements whose pause lists can each run to tens of thousands of
   entries, while a forged length prefix still cannot ask the reader to
   allocate the address space. *)
let max_frame_bytes = 1 lsl 28

module Codec = struct
  let fnv_body tag payload =
    let h = Wire.fnv_byte Wire.fnv_offset (Char.code tag) in
    Wire.fnv_string h payload

  let encode b ~tag payload =
    Wire.put_varint b (1 + String.length payload);
    Buffer.add_char b tag;
    Buffer.add_string b payload;
    Wire.put_int64_le b (fnv_body tag payload)

  type decoder = { mutable buf : Bytes.t; mutable len : int }

  let decoder () = { buf = Bytes.create 65536; len = 0 }

  let feed d chunk n =
    if n > 0 then begin
      if d.len + n > Bytes.length d.buf then begin
        let grown = Bytes.create (max (2 * Bytes.length d.buf) (d.len + n)) in
        Bytes.blit d.buf 0 grown 0 d.len;
        d.buf <- grown
      end;
      Bytes.blit chunk 0 d.buf d.len n;
      d.len <- d.len + n
    end

  let feed_string d s = feed d (Bytes.unsafe_of_string s) (String.length s)

  let buffered d = d.len

  (* Parse the varint length prefix at the head of the buffer.  Returns
     (header_bytes, body_len), or None if the prefix itself is still
     incomplete.  An overlong or oversized prefix is [Corrupt] the moment
     it is decidable — before any body bytes are waited for. *)
  let parse_header d =
    let rec go i shift len =
      if shift > 62 then corrupt "frame length varint overflow";
      if i >= d.len then None
      else begin
        let b = Bytes.get_uint8 d.buf i in
        let len = len lor ((b land 0x7f) lsl shift) in
        if b land 0x80 <> 0 then go (i + 1) (shift + 7) len
        else if len < 1 then corrupt "empty frame (no tag byte)"
        else if len > max_frame_bytes then
          corrupt "oversized frame: %d bytes (max %d)" len max_frame_bytes
        else Some (i + 1, len)
      end
    in
    go 0 0 0

  let checksum_at d pos =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Bytes.get_uint8 d.buf (pos + i)))
    done;
    !v

  let next d =
    match parse_header d with
    | None -> None
    | Some (hdr, len) ->
        if d.len < hdr + len + 8 then None
        else begin
          let body = Bytes.sub_string d.buf hdr len in
          let stored = checksum_at d (hdr + len) in
          let rest = d.len - (hdr + len + 8) in
          Bytes.blit d.buf (hdr + len + 8) d.buf 0 rest;
          d.len <- rest;
          let tag = body.[0] in
          let payload = String.sub body 1 (len - 1) in
          if stored <> fnv_body tag payload then corrupt "frame checksum mismatch";
          (Some (tag, payload))
        end
end

type t = { fd : Unix.file_descr; dec : Codec.decoder; chunk : Bytes.t; mutable open_ : bool }

let of_socket fd = { fd; dec = Codec.decoder (); chunk = Bytes.create 65536; open_ = true }

let fd t = t.fd

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let send ?scratch t ~tag payload =
  let b =
    match scratch with
    | Some b -> Buffer.clear b; b
    | None -> Buffer.create (String.length payload + 24)
  in
  Codec.encode b ~tag payload;
  let s = Buffer.contents b in
  write_all t.fd s 0 (String.length s)

let next_frame t = Codec.next t.dec

let mid_frame t = Codec.buffered t.dec > 0

let read_step t =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> `Eof
  | n ->
      Codec.feed t.dec t.chunk n;
      `Ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Ready

(* Bytes already waiting are read even at the deadline. *)
let rec wait_readable fd deadline =
  match Unix.select [ fd ] [] [] (Float.max 0.0 (deadline -. Unix.gettimeofday ())) with
  | _ :: _, _, _ -> ()
  | [], _, _ ->
      if Unix.gettimeofday () >= deadline then raise Timeout else wait_readable fd deadline
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd deadline

let rec recv ?deadline t =
  match next_frame t with
  | Some frame -> Some frame
  | None -> (
      Option.iter (wait_readable t.fd) deadline;
      match read_step t with
      | `Ready -> recv ?deadline t
      | `Eof ->
          if mid_frame t then corrupt "peer disconnected mid-frame" else None)

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
