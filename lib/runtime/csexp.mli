(** Canonical s-expressions (csexp), the journal's wire format: atoms
    are [<len>:<bytes>], lists are [(...)].  Self-delimiting, so a log
    truncated mid-record decodes up to the last complete record. *)

type t = Atom of string | List of t list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val decode_one : string -> pos:int -> (t * int) option
(** One value starting at [pos] and the position just past it; [None]
    on malformed or truncated input. *)

val decode_sub : bytes -> pos:int -> stop:int -> (t * int) option
(** [decode_one] over the bytes of a buffer from [pos] up to [stop]
    (a connection's inbound bytes, decoded in place). *)

val decode_prefix : string -> t list * int
(** The longest valid prefix: records plus the byte offset where
    decoding stopped (the full length iff the input is well-formed).
    Newline separators between records are tolerated and skipped. *)

val of_string : string -> t option
(** The whole string as exactly one value. *)
