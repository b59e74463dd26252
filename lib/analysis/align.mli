(** Lockstep alignment of a faulty run against its fault-free twin,
    maintaining the machine state of both runs and the set of
    {e corrupted} locations — locations whose faulty-run value differs
    from the fault-free value (value-based corruption, stricter than
    taint: a masked value is clean again).  Alignment stops at the
    first control-flow divergence.

    One shadow state is kept, the clean run's, in dense per-address and
    per-activation arrays; the faulty run's value is held only for
    corrupted locations, since everywhere else it equals the clean
    one.

    Faulty events are pushed one at a time through [feed], so a faulty
    run can be aligned while it executes, without keeping its trace.
    [drive] is the way to align a whole faulty run: it feeds a walker
    from a replay of the run and stops the replay at divergence or
    end. *)

type t

val create : ?fault:Machine.fault -> clean:Trace.t -> unit -> t
(** A walker fed by [feed] against the clean trace. *)

val pos : t -> int
(** The next event index to process (the number of aligned steps). *)

val clean_value : t -> Loc.t -> Value.t
val faulty_value : t -> Loc.t -> Value.t
val is_corrupted : t -> Loc.t -> bool
val corrupted_count : t -> int

val magnitude : t -> Loc.t -> float option
(** Error magnitude (Equation 2) of a corrupted location right now. *)

val last_writer : t -> Loc.t -> Trace.opclass option
(** The op of the faulty run's last write to the location among the
    events before the latest step's event — the producer of a value
    that event reads; [None] if no earlier aligned event wrote it. *)

val apply_pending_fault : t -> next_seq:int -> unit
(** Force a pending [Flip_mem] or [Mask_mem] whose trigger has been
    reached into the faulty shadow state (memory faults leave no write
    event in the trace).  [feed] does this automatically; analyses
    that snapshot state between events (e.g. at a region entry) call it
    explicitly. *)

type step =
  | Step of {
      index : int;
      clean_ev : Trace.event;
      faulty_ev : Trace.event;
      changed : Loc.t list;  (** locations written this step *)
    }
  | Diverged of int  (** control paths differ from this event on *)
  | End

val feed : t -> Trace.event -> step
(** Align the faulty run's next event with the clean event at the same
    index.  Once it has returned [Diverged] it keeps returning it. *)

val finish : t -> step
(** The faulty run has ended: [End] if the clean run ends at the same
    index, [Diverged] otherwise. *)

val drive : t -> ((Trace.event -> unit) -> unit) -> (step -> unit) -> int option
(** [drive w replay f] runs [replay], [feed]ing each event it pushes to
    [w] and passing every [Step] to [f], then [finish]es [w].  The replay
    is stopped, by an exception raised from its callback, as soon as
    alignment diverges or ends, so [replay] must let that exception
    through; a producer over a stored trace is [fun f -> Trace.iter f t].
    Exceptions [f] raises propagate.  Returns the divergence index, if
    any. *)
