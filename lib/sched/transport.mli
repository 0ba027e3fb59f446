(** Checksummed frame transport for the campaign fabric.

    One frame = a {!Gcr_tape.Wire} varint body length, a one-byte tag, the
    payload, and an FNV-1a-64 checksum of tag + payload (8 bytes,
    little-endian).  The same framing runs over a pipe pair (forked
    workers) and a TCP socket (remote workers), so the coordinator treats
    both identically.

    Hostile input never escapes the codec: an oversized or malformed
    length prefix, a checksum mismatch, or a truncated stream raises
    {!Corrupt} (or reads as end-of-stream at a frame boundary) {e before}
    any payload reaches [Marshal] — unmarshalling attacker-controlled
    bytes is never safe, checksummed frames are the gate.
    [test/test_transport.ml] fuzzes exactly this boundary. *)

exception Corrupt of string
(** The stream can no longer be trusted: kill the peer, never parse on. *)

val max_frame_bytes : int
(** Upper bound on a frame body (tag + payload).  A length prefix above
    this raises {!Corrupt} before any allocation — a forged 62-bit length
    cannot OOM the reader. *)

(** Pure incremental codec, exposed for the fuzz suite: feed arbitrary
    chunks, extract complete frames.  No file descriptors involved. *)
module Codec : sig
  val encode : Buffer.t -> tag:char -> string -> unit
  (** Append one encoded frame to the buffer. *)

  type decoder

  val decoder : unit -> decoder

  val feed : decoder -> bytes -> int -> unit
  (** Append the first [n] bytes of the chunk to the decode buffer. *)

  val feed_string : decoder -> string -> unit

  val next : decoder -> (char * string) option
  (** Extract the next complete frame, or [None] if more input is needed.
      Raises {!Corrupt} on an oversized/overflowing length prefix or a
      checksum mismatch; after that the decoder must be discarded. *)

  val buffered : decoder -> int
  (** Bytes fed but not yet consumed — [> 0] at end-of-stream means the
      peer disconnected mid-frame. *)
end

type t
(** One bidirectional endpoint: a pipe pair or a connected socket. *)

val of_fds : recv:Unix.file_descr -> send:Unix.file_descr -> t
(** A pipe-pair endpoint (forked worker ↔ coordinator). *)

val of_socket : Unix.file_descr -> t
(** A connected-socket endpoint (both directions on one fd). *)

val recv_fd : t -> Unix.file_descr
(** The descriptor to [select] on for inbound frames. *)

val send_fd : t -> Unix.file_descr
(** The outbound descriptor (equal to {!recv_fd} for sockets).  The
    coordinator needs both when closing a forked worker's pipe ends in
    later children. *)

val send : ?scratch:Buffer.t -> t -> tag:char -> string -> unit
(** Write one frame.  [scratch], when given, is a caller-owned assembly
    buffer reused across frames.  Raises [Unix.Unix_error] (e.g. [EPIPE])
    if the peer is gone — callers treat that as peer death. *)

val recv : t -> (char * string) option
(** Blocking read of the next frame.  [None] on a clean EOF at a frame
    boundary; {!Corrupt} on a mid-frame EOF or a damaged stream. *)

val read_step : t -> [ `Ready | `Eof ]
(** One [read(2)] into the decode buffer — the coordinator calls this
    after [select] reports the endpoint readable, then drains
    {!next_frame}.  [`Eof] when the peer closed.  Raises {!Corrupt} (via
    the decoder) or [Unix.Unix_error] on a broken descriptor. *)

val next_frame : t -> (char * string) option
(** Non-blocking: the next already-buffered frame, if complete. *)

val mid_frame : t -> bool
(** True when buffered bytes form an incomplete frame — an [`Eof] in that
    state means the peer died mid-send. *)

val close : t -> unit
(** Close the underlying descriptor(s); idempotent. *)
