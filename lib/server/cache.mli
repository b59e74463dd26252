(** Content-addressed store of expensive campaign artifacts (baked
    programs, golden runs, fault-site populations), keyed by the FNV-1a
    hash of a canonical description.  Entries start with a raw header
    — the writing build's fingerprint (compiler version + executable
    digest) and the payload's checksum — and are written atomically;
    both are checked on the raw bytes before anything is unmarshalled,
    so corrupt, torn, or other-build entries load as [None] — only a
    value marshalled by this exact binary is ever unmarshalled, and the
    cache can never poison or crash a campaign. *)

val key : string -> string
(** 16-hex-digit content key of a canonical description string. *)

val path : dir:string -> key:string -> string

val ensure_dir : string -> unit
(** Create a directory and any missing parents ([mkdir -p]). *)

val store : dir:string -> key:string -> 'a -> string
(** Marshal [v] under [key] (atomic: temp file + fsync + rename);
    returns the entry's path.  Creates [dir] if needed. *)

val load : dir:string -> key:string -> 'a option
(** [None] when missing, torn, checksum-mismatched, or written by a
    different build of the tool (the checksum guards bytes, not types;
    the build fingerprint guards the rest).  The caller must still
    expect the same type it stored under that key. *)

val entries : string -> string list
(** Keys present in a cache directory, sorted. *)
