(** Checksummed frame transport for the campaign fabric.

    One frame = a {!Gcr_tape.Wire} varint body length, a one-byte tag, the
    payload, and an FNV-1a-64 checksum of tag + payload (8 bytes,
    little-endian).  Every endpoint is one connected stream socket: a
    Unix socketpair end for a forked worker, a TCP connection for a
    [gcr worker] peer, so the coordinator treats both identically.

    Hostile input never escapes the codec: an oversized or malformed
    length prefix, a checksum mismatch, or a truncated stream raises
    {!Corrupt} (or reads as end-of-stream at a frame boundary) {e before}
    any payload reaches [Marshal] — unmarshalling attacker-controlled
    bytes is never safe, checksummed frames are the gate.
    [test/test_transport.ml] fuzzes exactly this boundary. *)

exception Corrupt of string
(** The stream can no longer be trusted: kill the peer, never parse on. *)

exception Timeout
(** {!recv}'s deadline passed before a whole frame arrived. *)

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
(** One bidirectional endpoint: a connected stream socket. *)

val of_socket : Unix.file_descr -> t

val fd : t -> Unix.file_descr
(** The descriptor to [select] on for inbound frames. *)

val send : ?scratch:Buffer.t -> t -> tag:char -> string -> unit
(** Write one frame.  [scratch], when given, is a caller-owned assembly
    buffer reused across frames.  Raises [Unix.Unix_error] (e.g. [EPIPE])
    if the peer is gone — callers treat that as peer death. *)

val recv : ?deadline:float -> t -> (char * string) option
(** Blocking read of the next frame.  [None] on a clean EOF at a frame
    boundary; {!Corrupt} on a mid-frame EOF or a damaged stream.  With
    [deadline] (a [Unix.gettimeofday] time), raises {!Timeout} once it
    passes without a whole frame, however the peer paces its bytes. *)

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
(** Close the socket; idempotent. *)
