(** Framed csexp transport over a stream socket: the campaign server's
    wire, modeled on {!Comm}'s reliable delivery mode.

    Every application message travels in a frame
    [(f <seqno> <checksum> <payload>)]: per-connection sequence numbers
    from 0, an FNV-1a checksum of the payload bytes, and the payload as
    one atom holding the encoded csexp.  Receivers verify the checksum,
    discard duplicate frames (seqno below the next expected), and
    recover from a gap or a corrupted frame by sending an unsequenced
    [(n <expected>)] nack, answered from the sender's bounded
    retransmit buffer — the same receiver-driven resend discipline the
    simulated MPI layer uses.  On a healthy socket none of this
    machinery fires; its purpose is to turn half-written frames from a
    SIGKILLed peer, and injected corruption in tests, into structured
    errors instead of silent misparses or hangs.

    Every blocking receive carries a wall-clock deadline and raises
    {!Timeout} instead of hanging the server's event loop. *)

type stats = {
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable dup_discarded : int;
  mutable checksum_failures : int;
  mutable nacks_sent : int;
  mutable resent : int;
}

let zero_stats () =
  {
    frames_sent = 0;
    frames_delivered = 0;
    dup_discarded = 0;
    checksum_failures = 0;
    nacks_sent = 0;
    resent = 0;
  }

type conn = {
  fd : Unix.file_descr;
  mutable send_seq : int;
  mutable expect_seq : int;  (** next inbound seqno to deliver *)
  mutable inbuf : Bytes.t;
      (** inbound bytes, read into place; those from [lo] up to [hi]
          are not decoded yet *)
  mutable lo : int;
  mutable hi : int;
  rtx : string array;
      (** retransmit ring: frame [s] sits in slot [s mod rtx_keep] while
          [s >= send_seq - rtx_keep] *)
  stats : stats;
  mutable inject : (string -> string list) option;
      (** test hook: rewrite an outgoing raw frame into the chunk list
          actually written (duplicate it, corrupt a byte, drop it) *)
}

exception Closed
exception Timeout of { what : string; after_s : float }
exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Closed -> Some "Wire.Closed: peer hung up"
    | Timeout { what; after_s } ->
        Some (Printf.sprintf "Wire.Timeout: %s after %.3fs" what after_s)
    | Corrupt m -> Some (Printf.sprintf "Wire.Corrupt: %s" m)
    | _ -> None)

let rtx_keep = 64

let of_fd (fd : Unix.file_descr) : conn =
  {
    fd;
    send_seq = 0;
    expect_seq = 0;
    inbuf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    rtx = Array.make rtx_keep "";
    stats = zero_stats ();
    inject = None;
  }

let stats (t : conn) : stats = t.stats
let fd (t : conn) : Unix.file_descr = t.fd
let set_inject (t : conn) (f : (string -> string list) option) = t.inject <- f

let close (t : conn) : unit = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* FNV-1a 64-bit, the same family Comm uses for payload checksums *)
let checksum ?(off = 0) (s : string) : int64 =
  if off < 0 || off > String.length s then invalid_arg "Wire.checksum";
  let h = ref 0xcbf29ce484222325L in
  for i = off to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let write_all (t : conn) (s : string) : unit =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    match Unix.write_substring t.fd s !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Closed
  done

let frame_of (seq : int) (payload : string) : string =
  Csexp.to_string
    (Csexp.List
       [
         Csexp.Atom "f";
         Csexp.Atom (string_of_int seq);
         Csexp.Atom (Int64.to_string (checksum payload));
         Csexp.Atom payload;
       ])

let send (t : conn) (msg : Csexp.t) : unit =
  let payload = Csexp.to_string msg in
  let raw = frame_of t.send_seq payload in
  t.rtx.(t.send_seq mod rtx_keep) <- raw;
  t.send_seq <- t.send_seq + 1;
  t.stats.frames_sent <- t.stats.frames_sent + 1;
  let chunks = match t.inject with None -> [ raw ] | Some f -> f raw in
  List.iter (write_all t) chunks

let send_nack (t : conn) (expected : int) : unit =
  t.stats.nacks_sent <- t.stats.nacks_sent + 1;
  write_all t
    (Csexp.to_string
       (Csexp.List [ Csexp.Atom "n"; Csexp.Atom (string_of_int expected) ]))

let resend_from (t : conn) (seq : int) : unit =
  if seq < max 0 (t.send_seq - rtx_keep) then
    raise
      (Corrupt
         (Printf.sprintf
            "peer nacked frame %d, which left the retransmit buffer \
             (unrecoverable)"
            seq));
  for s = seq to t.send_seq - 1 do
    t.stats.resent <- t.stats.resent + 1;
    write_all t t.rtx.(s mod rtx_keep)
  done

(* One decoded frame from the inbound buffer: [Some payload] delivers
   the next in-sequence application message; [None] means the buffer
   holds no complete deliverable frame (yet). *)
let rec take_frame (t : conn) : Csexp.t option =
  match Csexp.decode_sub t.inbuf ~pos:t.lo ~stop:t.hi with
  | None ->
      if t.hi - t.lo > 1 lsl 24 then
        raise (Corrupt "inbound buffer exceeded 16 MiB without a valid frame");
      None
  | Some (frame, stop) -> (
      t.lo <- stop;
      if t.lo = t.hi then begin
        t.lo <- 0;
        t.hi <- 0
      end;
      match frame with
      | Csexp.List [ Csexp.Atom "n"; Csexp.Atom seq ] ->
          (match int_of_string_opt seq with
          | Some s -> resend_from t s
          | None -> ());
          take_frame t
      | Csexp.List
          [ Csexp.Atom "f"; Csexp.Atom seq; Csexp.Atom sum; Csexp.Atom payload ]
        -> (
          match (int_of_string_opt seq, Int64.of_string_opt sum) with
          | Some seq, Some sum ->
              if not (Int64.equal sum (checksum payload)) then begin
                t.stats.checksum_failures <- t.stats.checksum_failures + 1;
                send_nack t t.expect_seq;
                take_frame t
              end
              else if seq < t.expect_seq then begin
                t.stats.dup_discarded <- t.stats.dup_discarded + 1;
                take_frame t
              end
              else if seq > t.expect_seq then begin
                send_nack t t.expect_seq;
                take_frame t
              end
              else begin
                t.expect_seq <- t.expect_seq + 1;
                t.stats.frames_delivered <- t.stats.frames_delivered + 1;
                match Csexp.of_string payload with
                | Some msg -> Some msg
                | None ->
                    raise
                      (Corrupt
                         "frame payload passed its checksum but is not a csexp")
              end
          | _ -> raise (Corrupt "frame header fields are not integers"))
      | _ -> raise (Corrupt ("unframed bytes on the wire: " ^ Csexp.to_string frame)))

(* Read into the inbound buffer past its undecoded bytes.  A full
   buffer first moves them to the front, or doubles when they fill half
   of it. *)
let read_some (t : conn) : bool =
  let size = Bytes.length t.inbuf in
  if t.hi = size then begin
    let live = t.hi - t.lo in
    let dst = if live < size / 2 then t.inbuf else Bytes.create (2 * size) in
    Bytes.blit t.inbuf t.lo dst 0 live;
    t.inbuf <- dst;
    t.lo <- 0;
    t.hi <- live
  end;
  match Unix.read t.fd t.inbuf t.hi (Bytes.length t.inbuf - t.hi) with
  | 0 -> raise Closed
  | n ->
      t.hi <- t.hi + n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed

let recv (t : conn) ~(timeout_s : float) : Csexp.t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match take_frame t with
    | Some msg -> msg
    | None ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then
          raise (Timeout { what = "recv"; after_s = timeout_s });
        (match Unix.select [ t.fd ] [] [] remaining with
        | [], _, _ -> raise (Timeout { what = "recv"; after_s = timeout_s })
        | _ :: _, _, _ -> ignore (read_some t)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let try_recv (t : conn) : Csexp.t option =
  match take_frame t with
  | Some msg -> Some msg
  | None -> (
      match Unix.select [ t.fd ] [] [] 0.0 with
      | [], _, _ -> None
      | _ :: _, _, _ ->
          ignore (read_some t);
          take_frame t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)

let pair () : conn * conn =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (of_fd a, of_fd b)
