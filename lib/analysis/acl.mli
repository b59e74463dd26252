(** The Alive-Corrupted-Locations (ACL) table: after every dynamic
    instruction of a faulty run, the number of locations that are both
    corrupted (value differs from the fault-free run) and alive (will
    be read again before being overwritten).  Emits the death and
    masking event streams from which the six resilience computation
    patterns are recognized.

    The walk takes the faulty run as the VM's reused
    {!Trace.cursor} and aligns it with {!Align} against the clean
    trace's columns.  Locations are slots of the clean trace's
    numbering ({!Trace.slots}), read from its slot column wherever the
    faulty access hits the clean key at the same position; each
    corrupting write's record goes into per-domain column buffers, so
    the walk allocates nothing per step or per record.  Keys become
    {!Loc.t}s only in the result. *)

type mask_kind =
  | Shift_mask   (** corrupted bits shifted out *)
  | Trunc_mask   (** corrupted bits removed by a narrowing conversion *)
  | Cond_mask    (** corrupted compare operand, same boolean outcome *)
  | Print_mask   (** corrupted value, identical formatted output *)
  | Repeated_add of { before : float; after : float }
      (** error magnitude shrank through a self-accumulating addition *)
  | Other_mask   (** any other value-level masking (mul by 0, min/max) *)

type masking = {
  m_index : int;
  m_loc : Loc.t;
  m_kind : mask_kind;
  m_line : int;
  m_region : int;
  m_instance : int;
}

type death_cause =
  | Overwritten  (** clean value stored over the corruption *)
  | Dead         (** never referenced again: dead corrupted location *)

type death = {
  d_index : int;
  d_loc : Loc.t;
  d_cause : death_cause;
  d_fed_forward : bool;  (** read at least once while corrupted *)
  d_line : int;
  d_region : int;
}

type result = {
  series : (int * int) array;  (** (seq, ACL count) at change points *)
  deaths : death list;
  maskings : masking list;
  divergence : int option;
  peak : int;
  final : int;
}

val mask_kind_to_string : mask_kind -> string

val analyze_replay :
  ?fault:Machine.fault ->
  clean:Trace.t ->
  replay:((Trace.cursor -> unit) -> unit) ->
  unit ->
  result
(** Build the ACL table of a faulty run without keeping its trace.
    [replay f] runs the faulty program, passing each event to [f] (e.g.
    {!Machine.run} with [f] as its sink); it is called once and followed
    to its end, since whether a corrupted value is alive depends on the
    faulty run's later accesses to its location, after a divergence
    too.  [fault] must be the fault of the faulty run when it was a
    [Machine.Mem]: memory faults leave no write event in the trace, so
    the walk applies them itself. *)

val analyze :
  ?fault:Machine.fault -> clean:Trace.t -> faulty:Trace.t -> unit -> result
(** [analyze_replay] over a stored faulty trace.  [fault] as for
    [analyze_replay]. *)
