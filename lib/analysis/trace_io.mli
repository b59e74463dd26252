(** Trace serialization: a line-oriented text format (one event per
    line, the LLVM-Tracer-file analog), a compact varint/delta binary
    format with a versioned header, streaming readers and writers, and
    per-code-region-instance splitting (the paper's trace-splitting
    step, Section IV-A).  See the implementation header for the exact
    byte layout of binary format version 1. *)

exception
  Parse_error of {
    line : string;  (** the offending line, or a short binary context *)
    token : string;  (** the offending token, or [""] *)
    msg : string;
  }
(** Raised on any malformed trace input, text or binary. *)

type format = Text | Binary

val magic : string
(** First bytes of a binary trace file: ["FTB"] plus a version byte. *)

(* --- text tokens --- *)

val opclass_code : Trace.opclass -> string

val parse_opclass : ?line:string -> string -> Trace.opclass
(** @raise Parse_error on an unknown or malformed opclass token;
    [?line] is attached to the error for context. *)

val parse_loc : ?line:string -> string -> Loc.t
(** @raise Parse_error on a malformed location token. *)

val write_event : Buffer.t -> Trace.event -> unit
(** Appends one text line (terminated by a newline). *)

val parse_event : string -> Trace.event
(** @raise Parse_error on a malformed line. *)

(* --- incremental writers --- *)

type writer
(** An incremental event writer over an [out_channel]; buffers
    internally and keeps the delta/shadow state of the binary codec. *)

val writer : ?format:format -> out_channel -> writer
(** Defaults to [Text].  A binary writer emits {!magic} immediately. *)

val write : writer -> Trace.event -> unit

val flush_writer : writer -> unit
(** Flush buffered bytes to the channel (the channel stays open and is
    never closed by this module's writers). *)

val writer_events : writer -> int
val writer_bytes : writer -> int
(** Events and bytes written so far (header included). *)

val write_channel : ?format:format -> out_channel -> Trace.t -> unit
val save : ?format:format -> string -> Trace.t -> unit

(* --- streaming readers --- *)

val events_of_channel : in_channel -> Trace.event Seq.t
(** Lazy event sequence; the encoding is sniffed from the first bytes.
    Single-shot: forcing the sequence consumes the channel.
    @raise Parse_error on malformed input (when forced). *)

val read_channel : in_channel -> Trace.t
val load : string -> Trace.t
(** Both accept either encoding. *)

(* --- region-instance splitting --- *)

val split_seq :
  dir:string ->
  ?prefix:string ->
  ?format:format ->
  Trace.event Seq.t ->
  string list
(** One file per region instance under [dir] (created if needed), named
    [<prefix>_r<region>_i<instance>.trace]; returns the paths in
    encounter order.  Streaming: single pass, one open piece at a time.
    Events outside any region (region [-1]) are dropped, as before. *)

(* --- low-level binary codec (bench/test instrumentation) --- *)

type encoder
(** Delta/shadow state of the binary codec, for callers that need
    per-event byte accounting; {!writer} is the normal interface. *)

val encoder : unit -> encoder

val encode_event : encoder -> Buffer.t -> Trace.event -> unit
(** Appends one event's binary encoding ({e without} the file header);
    bytes appended across successive calls on one [encoder] are exactly
    the file body a binary {!writer} would produce. *)
