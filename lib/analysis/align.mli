(** Lockstep alignment of a faulty trace against its fault-free twin,
    maintaining the machine state of both runs and the set of
    {e corrupted} locations — locations whose faulty-run value differs
    from the fault-free value (value-based corruption, stricter than
    taint: a masked value is clean again).  Alignment stops at the
    first control-flow divergence.

    One shadow state is kept, the clean run's, in dense per-address and
    per-activation arrays; the faulty run's value is held only for
    corrupted locations, since everywhere else it equals the clean
    one. *)

type t

val create : ?fault:Machine.fault -> clean:Trace.t -> faulty:Trace.t -> unit -> t

val create_seq :
  ?fault:Machine.fault ->
  clean:Trace.event Seq.t ->
  faulty:Trace.event Seq.t ->
  unit ->
  t
(** Walker over event streams: memory stays proportional to the
    machine state the runs touch (addresses and activations), not the
    trace length.  The sequences are consumed incrementally as [step]
    advances. *)

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
(** Force a pending [Flip_mem] whose trigger has been reached into the
    faulty shadow state.  [step] does this automatically; analyses that
    snapshot state between events (e.g. at a region entry) call it
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

val step : t -> step

val walk :
  ?fault:Machine.fault ->
  clean:Trace.t ->
  faulty:Trace.t ->
  (step -> unit) ->
  int option
(** Run to completion; returns the divergence index, if any. *)
