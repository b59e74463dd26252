(** Lockstep alignment of a faulty trace against its fault-free twin,
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
    run can be aligned while it executes, without keeping its trace;
    [step] pulls them from a faulty trace instead. *)

type t

val create : ?fault:Machine.fault -> clean:Trace.t -> ?faulty:Trace.t -> unit -> t
(** A walker against the clean trace.  With [faulty], [step] pulls the
    faulty events from it; without, the walker is fed by [feed]. *)

val create_seq : ?fault:Machine.fault -> clean:Trace.event Seq.t -> unit -> t
(** A walker fed by [feed] against a clean event stream: memory stays
    proportional to the machine state the runs touch (addresses and
    activations), not the trace length.  The stream is consumed one
    event per fed event. *)

val pos : t -> int
(** The next event index to process (the number of aligned steps). *)

val clean_value : t -> Loc.t -> Value.t
val faulty_value : t -> Loc.t -> Value.t
val is_corrupted : t -> Loc.t -> bool
val corrupted_count : t -> int
val corrupted_locs : t -> Loc.t list

val magnitude : t -> Loc.t -> float option
(** Error magnitude (Equation 2) of a corrupted location right now. *)

val last_writer : t -> Loc.t -> Trace.opclass option
(** The op of the faulty run's last write to the location among the
    events before the latest step's event — the producer of a value
    that event reads; [None] if no earlier aligned event wrote it. *)

val apply_pending_fault : t -> next_seq:int -> unit
(** Force a pending [Flip_mem] or [Mask_mem] whose trigger has been
    reached into the faulty shadow state (memory faults leave no write
    event in the trace).  [feed] and [step] do this automatically;
    analyses that snapshot state between events (e.g. at a region
    entry) call it explicitly. *)

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

val step : t -> step
(** [feed] the next event of the walker's faulty trace, or [finish]
    after its last.
    @raise Invalid_argument on a walker created without [faulty]. *)

val walk :
  ?fault:Machine.fault ->
  clean:Trace.t ->
  faulty:Trace.t ->
  (step -> unit) ->
  int option
(** Run to completion; returns the divergence index, if any. *)
