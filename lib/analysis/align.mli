(** Lockstep alignment of a faulty run against its fault-free twin,
    maintaining the machine state of both runs and the set of
    {e corrupted} locations — locations whose faulty-run value differs
    from the fault-free value (value-based corruption, stricter than
    taint: a masked value is clean again).  Alignment stops at the
    first control-flow divergence.

    Locations are {!Loc.key}s, numbered by the clean trace's
    {!Trace.slots}: a faulty write whose key equals the clean key at the
    same access position takes the column's slot, any other key is
    looked up, and a location only the faulty run touches is numbered
    after the clean ones.  Per slot, the clean and faulty values are
    unboxed int64s next to a corrupted flag, and a step allocates
    nothing.  The faulty value is kept only for corrupted locations,
    since everywhere else it equals the clean one.  The clean run is
    read from the columns of its stored trace.

    Faulty events are pushed one at a time through [feed], as the
    {!Trace.cursor} a running VM fills, so a faulty run can be aligned
    while it executes, without keeping its trace.  [drive] is the way
    to align a whole faulty run: it feeds a walker from a replay of the
    run and stops the replay at divergence or end. *)

type t

val create : ?fault:Machine.fault -> clean:Trace.t -> unit -> t
(** A walker fed by [feed] against the clean trace. *)

val pos : t -> int
(** The next event index to process (the number of aligned steps). *)

val clean_value : t -> int -> Value.t
val faulty_value : t -> int -> Value.t
val is_corrupted : t -> int -> bool
val corrupted_count : t -> int

val magnitude : t -> int -> float option
(** Error magnitude (Equation 2) of a corrupted location right now. *)

(** {2 Slots}

    The walk's dense numbering of locations, shared with [Acl]:
    [0 .. nslots - 1], the clean trace's slots first. *)

val find : t -> int -> int
(** The slot of a key, or -1 for a location that neither the clean run
    touches nor the walk has numbered (for an aligned faulty write or a
    memory fault). *)

val is_corrupted_slot : t -> int -> bool

val magnitude_to : t -> int -> float array -> int -> unit
(** [magnitude_to w s dst i] stores the error magnitude of slot [s] in
    [dst.(i)], or 0.0 if it is not corrupted: a float returned across
    modules would be boxed. *)

val last_write_adds : t -> int -> bool
(** Was the faulty run's last write to the slot, up to and including
    the latest step, an [OBin Fadd] or [OBin Fsub]?  [Acl] asks it of
    the register a store reads, which the store itself does not
    write. *)

val apply_pending_fault : t -> next_seq:int -> unit
(** Force a pending [Machine.Mem] fault whose trigger has been
    reached into the faulty shadow state (memory faults leave no write
    event in the trace).  [feed] does this automatically; analyses
    that snapshot state between events (e.g. at a region entry) call it
    explicitly. *)

type step =
  | Step  (** event [pos - 1] was aligned; see {!nchanged} *)
  | Diverged of int  (** control paths differ from this event on *)
  | End

val feed : t -> Trace.cursor -> step
(** Align the faulty run's next event with the clean event at the same
    index.  Once it has returned [Diverged] it keeps returning it. *)

val nchanged : t -> int
(** The number of locations the latest [Step] wrote, in either run. *)

val changed : t -> int -> int
(** [changed w k], [k < nchanged w]: the locations only the faulty run
    wrote, last written first, then the clean run's written locations,
    last first. *)

val changed_slot : t -> int -> int
(** The slot of [changed w k]. *)

val changed_corrupted : t -> int -> bool
(** Is [changed w k] corrupted after the step? *)

val finish : t -> step
(** The faulty run has ended: [End] if the clean run ends at the same
    index, [Diverged] otherwise. *)

val drive : t -> ((Trace.cursor -> unit) -> unit) -> (Trace.cursor -> unit) -> int option
(** [drive w replay f] runs [replay], [feed]ing each event it pushes to
    [w] and passing the faulty event of every aligned step to [f], then
    [finish]es [w].  The replay is stopped, by an exception raised from
    its callback, as soon as alignment diverges or ends, so [replay]
    must let that exception through; a producer over a stored trace is
    [Trace.replay t].  Exceptions [f] raises propagate.  Returns the
    divergence index, if any. *)
