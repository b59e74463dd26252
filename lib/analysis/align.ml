(** Lockstep alignment of a faulty trace against its fault-free twin.

    While the two traces execute the same control path (same function
    and pc per event), the walker maintains the machine state of both
    runs and the set of *corrupted* locations — locations whose
    faulty-run value differs from the fault-free value.  This is the
    value-based notion of corruption from the paper (stricter than
    taint: a masked value is clean again even though it depends on the
    fault).

    There is one shadow state, the clean run's, in a dense
    {!Loc_store}.  The faulty run's state is the clean one except on the
    corrupted locations, so only those carry a second value: a second
    dense store holds each corrupted location's faulty value, and the
    [same] marker everywhere else.

    The walk is push-driven: [feed] takes the faulty run's next event
    and reads the clean event at the same index, so a faulty run can be
    analyzed while it executes, without keeping its trace.  [drive]
    feeds a walker from a replay of the faulty run and stops the replay
    once alignment diverges or ends.

    When the control paths diverge, alignment stops; analyses treat the
    remainder as control-flow divergence, which the paper detects the
    same way (by comparing operations between the two DDDGs). *)

type t = {
  clean_trace : Trace.t;  (** read at the faulty event's index *)
  mutable pos : int;  (** next event index to process *)
  clean : Value.t Loc_store.t;  (** the clean run's shadow state *)
  faulty : Value.t Loc_store.t;
      (** the faulty value of each corrupted location; [same] elsewhere *)
  mutable ncorrupted : int;
  writer : Trace.opclass Loc_store.t;
      (** op of the faulty run's last write to each location, up to the
          event before [last_faulty] *)
  mutable last_faulty : Trace.event;
      (** the faulty event of the latest step, whose writes [writer]
          takes in at the next step *)
  fault : Machine.fault option;
  mutable fault_applied : bool;
  mutable diverged_at : int option;
}

(* end-of-stream sentinel, compared physically *)
let eos : Trace.event =
  {
    Trace.seq = -1; fidx = -1; pc = -1; act = -1; line = 0; region = -1;
    instance = -1; iter = -1; op = Trace.OJmp; reads = [||]; writes = [||];
  }

(* [faulty]'s default, compared physically: a fresh box no trace holds *)
let same : Value.t = Int64.of_string "0"

(* [writer]'s default: never the op of a traced event *)
let no_writer = Trace.OIntr "<no writer>"

let create ?fault ~(clean : Trace.t) () : t =
  {
    clean_trace = clean;
    pos = 0;
    clean = Loc_store.create Value.zero;
    faulty = Loc_store.create same;
    ncorrupted = 0;
    writer = Loc_store.create no_writer;
    last_faulty = eos;
    fault;
    fault_applied = false;
    diverged_at = None;
  }

let pos (w : t) = w.pos
let clean_value (w : t) loc = Loc_store.get w.clean loc

let faulty_value (w : t) loc =
  let v = Loc_store.get w.faulty loc in
  if v == same then clean_value w loc else v

let is_corrupted (w : t) loc =
  w.ncorrupted > 0 && Loc_store.get w.faulty loc != same

let corrupted_count (w : t) = w.ncorrupted

(** Error magnitude (Equation 2) of a corrupted location right now. *)
let magnitude (w : t) loc : float option =
  let faulty = Loc_store.get w.faulty loc in
  if faulty == same then None
  else Some (Value.error_magnitude ~correct:(clean_value w loc) ~faulty)

let last_writer (w : t) loc : Trace.opclass option =
  let op = Loc_store.get w.writer loc in
  if op == no_writer then None else Some op

(* record [loc]'s faulty value [fv] against its (already updated) clean
   value *)
let set_faulty (w : t) loc fv =
  let was = Loc_store.get w.faulty loc != same in
  if Value.equal fv (clean_value w loc) then begin
    if was then begin
      Loc_store.set w.faulty loc same;
      w.ncorrupted <- w.ncorrupted - 1
    end
  end
  else begin
    if not was then w.ncorrupted <- w.ncorrupted + 1;
    Loc_store.set w.faulty loc fv
  end

(** Force a pending [Flip_mem] or [Mask_mem] fault whose trigger
    sequence has been reached into the faulty shadow state.  Memory
    faults leave no write event in the trace, so the walker applies
    them itself: [feed] does this before each event; analyses
    that snapshot state between events (e.g. at a region entry) call it
    explicitly with the next event's sequence number. *)
let apply_pending_fault (w : t) ~(next_seq : int) : unit =
  match w.fault with
  | Some (Machine.Flip_mem { seq; addr; bit })
    when (not w.fault_applied) && next_seq >= seq ->
      w.fault_applied <- true;
      let loc = Loc.Mem addr in
      set_faulty w loc (Value.flip_bit (faulty_value w loc) bit)
  | Some (Machine.Mask_mem { seq; addr; and_mask; or_mask; xor_mask })
    when (not w.fault_applied) && next_seq >= seq ->
      w.fault_applied <- true;
      let loc = Loc.Mem addr in
      set_faulty w loc
        (Machine.apply_masks (faulty_value w loc) ~and_mask ~or_mask ~xor_mask)
  | Some
      ( Machine.Flip_mem _ | Machine.Flip_write _ | Machine.Mask_mem _
      | Machine.Mask_write _ | Machine.Cache_fault _ )
  | None ->
      ()

type step =
  | Step of {
      index : int;  (** event index that was just processed *)
      clean_ev : Trace.event;
      faulty_ev : Trace.event;
      changed : Loc.t list;  (** locations written this step (either run) *)
    }
  | Diverged of int  (** control paths differ starting at this index *)
  | End

(* Apply the writes of one aligned step whose two runs wrote different
   locations (a store through a corrupted address) or several.
   [changed] lists the locations only the faulty run wrote, last written
   first, then the clean run's written locations, last first.
   [Acl] updates its statuses in this order, so it fixes the order of the
   deaths and maskings the ACL fixture pins.  A location only the clean
   run wrote keeps its faulty value from before the step, so those are
   read before the clean state moves. *)
let apply_writes (w : t) (cw : (Loc.t * Value.t) array)
    (fw : (Loc.t * Value.t) array) : Loc.t list =
  let changed =
    Array.fold_left
      (fun acc (loc, _) ->
        if List.exists (Loc.equal loc) acc then acc else loc :: acc)
      (Array.fold_left (fun acc (loc, _) -> loc :: acc) [] cw)
      fw
  in
  let faulty_after loc =
    Array.fold_left
      (fun v (l, x) -> if Loc.equal l loc then x else v)
      (faulty_value w loc) fw
  in
  let fvs = List.map faulty_after changed in
  Array.iter (fun (loc, v) -> Loc_store.set w.clean loc v) cw;
  List.iter2 (set_faulty w) changed fvs;
  changed

(** Align the faulty run's next event [ef] ([eos] once it has ended)
    with the clean event at the same index. *)
let feed (w : t) (ef : Trace.event) : step =
  match w.diverged_at with
  | Some i -> Diverged i
  | None ->
      let t = w.clean_trace in
      let ec = if w.pos < Trace.length t then Trace.get t w.pos else eos in
      if ec == eos && ef == eos then End
      else if ec == eos || ef == eos || not (Trace.same_control ec ef) then begin
        (* a control-path difference, or one run is shorter/longer
           (crash or hang): the common prefix has been consumed *)
        w.diverged_at <- Some w.pos;
        Diverged w.pos
      end
      else begin
        (* the previous faulty event's writes become visible to
           [last_writer] *)
        let prev = w.last_faulty in
        for k = 0 to Array.length prev.writes - 1 do
          Loc_store.set w.writer (fst prev.writes.(k)) prev.op
        done;
        w.last_faulty <- ef;
        (* a pending memory fault lands before its trigger event *)
        apply_pending_fault w ~next_seq:ef.seq;
        let cw = ec.writes and fw = ef.writes in
        let changed =
          match (cw, fw) with
          | [||], [||] -> []
          | [| (loc, cv) |], [| (floc, fv) |] when Loc.equal loc floc ->
              Loc_store.set w.clean loc cv;
              set_faulty w loc fv;
              [ loc ]
          | _ -> apply_writes w cw fw
        in
        w.pos <- w.pos + 1;
        Step { index = w.pos - 1; clean_ev = ec; faulty_ev = ef; changed }
      end

(** The faulty run has ended: [End] if the clean run ends here too. *)
let finish (w : t) : step = feed w eos

(* raised out of a replay to stop it once alignment has diverged or
   ended, carrying the divergence index *)
exception Stop of int option

(** Feed the events [replay] pushes to [w], passing every aligned step
    to [f], and stop the replay as soon as alignment diverges or ends.
    Returns the divergence index, if any. *)
let drive (w : t) (replay : (Trace.event -> unit) -> unit)
    (f : step -> unit) : int option =
  let push = function
    | Step _ as s -> f s
    | Diverged i -> raise_notrace (Stop (Some i))
    | End -> raise_notrace (Stop None)
  in
  try
    replay (fun ev -> push (feed w ev));
    push (finish w);
    None
  with Stop d -> d
