(** Append-only on-disk journal of csexp records, fsync'd in batches.
    A record is one csexp value followed by a newline (the newline is
    cosmetic; csexp is self-delimiting).  Reading tolerates a torn
    tail: [load] stops at the last complete record. *)

type writer

val load : string -> Csexp.t list * int
(** All complete records plus the byte offset of the valid prefix's
    end.  A missing file loads as [([], 0)]. *)

val create : string -> writer
(** Truncate/create the file and open it for appending. *)

val open_append : ?truncate_at:int -> string -> writer
(** Open for appending; [truncate_at] first drops a torn tail (pass
    the offset [load] returned). *)

val write : writer -> Csexp.t -> unit
(** Buffer one record (durable only after [sync]). *)

val sync : writer -> unit
(** Write the buffered records and fsync. *)

val close : writer -> unit
(** [sync] then close the descriptor.  Idempotent. *)

val open_campaign :
  resume:bool -> header:Csexp.t -> string -> writer * Csexp.t list
(** Open a campaign journal whose first record is [header], and return
    the writer and the records after the header.  Without [resume], or
    on a missing file, the file is created (truncated) with [header]
    written and synced.  Otherwise the torn tail is healed and the
    header checked; a file the heal left empty gets its header
    rewritten.
    @raise Failure naming both headers when the file opens with a
    different one (another campaign's journal). *)
