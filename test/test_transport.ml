(* Fuzzing the fabric's frame codec at the trust boundary.

   The socket fabric unmarshals payloads sent by worker processes, and
   Marshal on corrupted input is not exception-safe — so the framing
   layer must be the gate: truncation, bit flips, oversized length
   prefixes, and mid-frame disconnects all have to surface as
   {!Transport.Corrupt} (or a clean end-of-stream at a frame boundary)
   before any payload byte reaches Marshal.  These properties are what
   lets the coordinator treat any codec exception as "worker died,
   requeue its cells" instead of undefined behaviour. *)

module Transport = Gcr_sched.Transport
module Codec = Transport.Codec
module Wire = Gcr_tape.Wire

let check = Alcotest.check

(* --- generators --- *)

let frame_gen =
  QCheck.Gen.(
    pair (map Char.chr (int_range 32 126)) (string_size ~gen:char (int_range 0 300)))

let frames_gen = QCheck.Gen.(list_size (int_range 1 12) frame_gen)

let print_frames fs =
  String.concat "; "
    (List.map (fun (t, p) -> Printf.sprintf "%c:%d bytes" t (String.length p)) fs)

let frames_arb = QCheck.make ~print:print_frames frames_gen

let encode_all frames =
  let b = Buffer.create 1024 in
  List.iter (fun (tag, payload) -> Codec.encode b ~tag payload) frames;
  Buffer.contents b

(* Per-frame encoded sizes, for locating which frame a corruption lands
   in: varint(len) + len + 8-byte checksum. *)
let encoded_sizes frames =
  List.map
    (fun (tag, payload) ->
      let b = Buffer.create 64 in
      Codec.encode b ~tag payload;
      String.length (Buffer.contents b))
    frames

(* Drain every complete frame; Corrupt is the caller's business. *)
let drain dec =
  let rec go acc =
    match Codec.next dec with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* --- properties --- *)

(* Chunking is transparent: however the stream is sliced, the decoder
   reassembles exactly the frames that were encoded. *)
let prop_roundtrip_chunked =
  QCheck.Test.make ~name:"roundtrip under arbitrary chunking" ~count:200
    QCheck.(pair frames_arb (make QCheck.Gen.(int_range 1 17)))
    (fun (frames, chunk) ->
      let wire = encode_all frames in
      let dec = Codec.decoder () in
      let out = ref [] in
      let n = String.length wire in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        Codec.feed_string dec (String.sub wire !i len);
        out := !out @ drain dec;
        i := !i + len
      done;
      !out = frames && Codec.buffered dec = 0)

(* A truncated stream yields a strict prefix of the frames, and the cut
   is detectable: either it fell exactly on a frame boundary, or the
   decoder still holds partial bytes ([buffered > 0] — the fabric's
   "peer disconnected mid-frame"). *)
let prop_truncation_is_prefix =
  QCheck.Test.make ~name:"truncation yields a detectable prefix" ~count:300
    QCheck.(pair frames_arb (make QCheck.Gen.(int_range 0 10_000)))
    (fun (frames, cut) ->
      let wire = encode_all frames in
      let cut = cut mod max 1 (String.length wire) in
      let dec = Codec.decoder () in
      Codec.feed_string dec (String.sub wire 0 cut);
      let out = drain dec in
      let boundaries =
        List.fold_left (fun acc sz -> (List.hd acc + sz) :: acc) [ 0 ]
          (encoded_sizes frames)
      in
      is_prefix out frames
      && (Codec.buffered dec > 0 || List.mem cut boundaries))

(* One flipped bit can never smuggle a wrong frame through: every frame
   the decoder still yields (before it raises Corrupt or runs out of
   input) that lies entirely before the flipped byte is byte-identical
   to the original at that position, and nothing beyond the original
   frame count ever appears. *)
let prop_bit_flip_never_wrong_frame =
  QCheck.Test.make ~name:"bit flip never yields a wrong frame" ~count:500
    QCheck.(pair frames_arb (make QCheck.Gen.(pair (int_range 0 100_000) (int_range 0 7))))
    (fun (frames, (pos, bit)) ->
      let wire = encode_all frames in
      let pos = pos mod String.length wire in
      let b = Bytes.of_string wire in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      let dec = Codec.decoder () in
      Codec.feed_string dec (Bytes.to_string b);
      let out = try drain dec with Transport.Corrupt _ -> [] in
      (* frames wholly before the flip are untouched and must decode
         verbatim; the flipped frame either fails its checksum (Corrupt,
         caught above) or desynchronises the stream — but a desynced
         tail still cannot fabricate trusted frames before the flip *)
      let sizes = encoded_sizes frames in
      let intact =
        let rec count off = function
          | sz :: rest when off + sz <= pos -> 1 + count (off + sz) rest
          | _ -> 0
        in
        count 0 sizes
      in
      let rec take n = function
        | x :: xs when n > 0 -> x :: take (n - 1) xs
        | _ -> []
      in
      List.length out <= List.length frames
      && take intact out = take (min intact (List.length out)) frames)

(* --- crafted hostile prefixes --- *)

(* A length prefix above the frame cap is Corrupt the moment it is
   decidable — before the decoder waits for (or allocates) the body. *)
let test_oversized_length_prefix () =
  let b = Buffer.create 16 in
  Wire.put_varint b (Transport.max_frame_bytes + 1);
  let dec = Codec.decoder () in
  Codec.feed_string dec (Buffer.contents b);
  check Alcotest.bool "oversized prefix raises Corrupt" true
    (match Codec.next dec with
    | exception Transport.Corrupt _ -> true
    | _ -> false)

(* An unterminated varint that overflows 62 bits — the fabric's garble
   fault injection sends exactly these bytes — must be Corrupt even
   though the "length" never completes. *)
let test_overflowing_varint () =
  let dec = Codec.decoder () in
  Codec.feed_string dec (String.make 10 '\xff');
  check Alcotest.bool "overflowing varint raises Corrupt" true
    (match Codec.next dec with
    | exception Transport.Corrupt _ -> true
    | _ -> false)

(* A zero-length frame has no tag byte to dispatch on: Corrupt. *)
let test_empty_frame_rejected () =
  let dec = Codec.decoder () in
  Codec.feed_string dec "\x00";
  check Alcotest.bool "empty frame raises Corrupt" true
    (match Codec.next dec with
    | exception Transport.Corrupt _ -> true
    | _ -> false)

(* --- the same boundary through a real endpoint pair --- *)

let test_mid_frame_eof_over_socketpair () =
  let a, z = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sender = Transport.of_socket a and receiver = Transport.of_socket z in
  Transport.send sender ~tag:'X' "intact";
  (* then half a frame: a plausible header and some body, no checksum *)
  let b = Buffer.create 32 in
  Codec.encode b ~tag:'Y' "this frame will be cut short";
  ignore (Unix.write_substring a (Buffer.contents b) 0 10 : int);
  Transport.close sender;
  check Alcotest.bool "the intact frame arrives" true
    (Transport.recv receiver = Some ('X', "intact"));
  check Alcotest.bool "mid-frame EOF raises Corrupt" true
    (match Transport.recv receiver with
    | exception Transport.Corrupt _ -> true
    | _ -> false);
  Transport.close receiver

let test_clean_eof_at_boundary () =
  let a, z = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sender = Transport.of_socket a and receiver = Transport.of_socket z in
  Transport.send sender ~tag:'Q' "";
  Transport.close sender;
  check Alcotest.bool "frame then clean EOF" true
    (Transport.recv receiver = Some ('Q', "")
    && Transport.recv receiver = None
    && not (Transport.mid_frame receiver));
  Transport.close receiver

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip_chunked;
    QCheck_alcotest.to_alcotest prop_truncation_is_prefix;
    QCheck_alcotest.to_alcotest prop_bit_flip_never_wrong_frame;
    Alcotest.test_case "oversized length prefix" `Quick test_oversized_length_prefix;
    Alcotest.test_case "overflowing varint" `Quick test_overflowing_varint;
    Alcotest.test_case "empty frame rejected" `Quick test_empty_frame_rejected;
    Alcotest.test_case "mid-frame EOF over a socketpair" `Quick
      test_mid_frame_eof_over_socketpair;
    Alcotest.test_case "clean EOF at a frame boundary" `Quick test_clean_eof_at_boundary;
  ]
