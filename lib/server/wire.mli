(** Framed csexp transport over a stream socket, modeled on {!Comm}'s
    reliable delivery mode: per-connection sequence numbers, FNV-1a
    payload checksums, duplicate suppression, and receiver-driven
    resend from a bounded retransmit buffer.  Blocking receives carry a
    wall-clock deadline and raise {!Timeout} instead of hanging. *)

type stats = {
  mutable frames_sent : int;
  mutable frames_delivered : int;
  mutable dup_discarded : int;
  mutable checksum_failures : int;
  mutable nacks_sent : int;
  mutable resent : int;
}

type conn

exception Closed
(** The peer hung up (EOF, EPIPE, ECONNRESET). *)

exception Timeout of { what : string; after_s : float }
(** A deadline expired with no deliverable frame. *)

exception Corrupt of string
(** The stream is unrecoverable: unframed bytes, a nack past the
    retransmit buffer, or a payload that checksums but won't parse. *)

val of_fd : Unix.file_descr -> conn
val pair : unit -> conn * conn
(** A connected [socketpair], one end each (for forked workers). *)

val send : conn -> Csexp.t -> unit
(** Frame and write one message; keeps it in the retransmit buffer
    until it ages out.  @raise Closed on a dead peer. *)

val recv : conn -> timeout_s:float -> Csexp.t
(** The next in-sequence message.  Duplicates are discarded; gaps and
    checksum failures trigger a nack and the wait continues.
    @raise Timeout when the deadline passes first. *)

val try_recv : conn -> Csexp.t option
(** Non-blocking [recv]: [None] when no complete frame is available. *)

val stats : conn -> stats

val fd : conn -> Unix.file_descr
(** The underlying descriptor (for [select] in an event loop). *)

val set_inject : conn -> (string -> string list) option -> unit
(** Test hook: rewrite each outgoing raw frame into the chunks actually
    written — duplicate it (dup suppression), corrupt a byte (checksum
    + resend), or drop it (gap + resend). *)

val close : conn -> unit

val checksum : ?off:int -> string -> int64
(** FNV-1a 64 of a byte string, or of its bytes from [off] on —
    exposed for the cache's integrity check, which hashes an entry's
    payload in place. *)
