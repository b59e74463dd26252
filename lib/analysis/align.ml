(** Lockstep alignment of a faulty trace against its fault-free twin.

    While the two traces execute the same control path (same function
    and pc per event), the walker maintains the machine state of both
    runs and the set of *corrupted* locations — locations whose
    faulty-run value differs from the fault-free value.  This is the
    value-based notion of corruption from the paper (stricter than
    taint: a masked value is clean again even though it depends on the
    fault).

    Each location the walk touches gets a slot number, by {!Loc.key},
    from a dense {!Loc_store}; the shadow state lives in flat arrays
    indexed by slot: the clean run's value and the faulty run's value
    as unboxed int64s, a corrupted flag, and whether the faulty run's
    last write was a floating-point addition.  The faulty value means
    something only where the flag is set: everywhere else the faulty
    run's value is the clean one.  Nothing here is boxed, so a step
    allocates nothing and writes no pointer.

    The walk is push-driven: [feed] takes the faulty run's next event as
    a {!Trace.cursor} and reads the clean event at the same index from
    the clean trace's columns, so a faulty run can be analyzed while it
    executes, without keeping its trace.  [drive] feeds a walker from a
    replay of the faulty run and stops the replay once alignment
    diverges or ends.

    When the control paths diverge, alignment stops; analyses treat the
    remainder as control-flow divergence, which the paper detects the
    same way (by comparing operations between the two DDDGs). *)

type ba = Trace.ba

type step = Step | Diverged of int | End

type t = {
  clean_trace : Trace.t;  (** read at the faulty event's index *)
  ckeys : int array;  (** the clean trace's access keys ... *)
  cvals : ba;  (** ... and values *)
  mutable pos : int;  (** next event index to process *)
  slots : int Loc_store.t;  (** key -> slot, -1 before the first touch *)
  mutable nslots : int;
  mutable clean : ba;  (** by slot: the clean run's value *)
  mutable faulty : ba;  (** by slot: the faulty run's value, if corrupted *)
  mutable corrupted : Bytes.t;  (** by slot: ['\001'] if corrupted *)
  mutable adds : Bytes.t;
      (** by slot: ['\001'] if the faulty run's last write to it, up to
          the latest step, was an [OBin Fadd] or [OBin Fsub] *)
  mutable ncorrupted : int;
  mutable changed : int array;  (** keys written by the latest step *)
  mutable changed_corrupt : Bytes.t;
      (** by [changed] position: ['\001'] if corrupted after the step *)
  mutable nchanged : int;
  mutable fvs : ba;  (** scratch: faulty values after a many-write step *)
  fault : Machine.fault option;
  mutable fault_applied : bool;
  mutable diverged : step option;  (** [Some (Diverged i)] once diverged *)
}

let ba n : ba = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n

let create ?fault ~(clean : Trace.t) () : t =
  {
    clean_trace = clean;
    ckeys = Trace.keys clean;
    cvals = Trace.values clean;
    pos = 0;
    slots = Loc_store.create (-1);
    nslots = 0;
    clean = ba 64;
    faulty = ba 64;
    corrupted = Bytes.make 64 '\000';
    adds = Bytes.make 64 '\000';
    ncorrupted = 0;
    changed = Array.make 8 0;
    changed_corrupt = Bytes.make 8 '\000';
    nchanged = 0;
    fvs = ba 8;
    fault;
    fault_applied = false;
    diverged = None;
  }

let grow_ba (a : ba) n : ba =
  let b = ba n in
  let m = Bigarray.Array1.dim a in
  Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 m);
  b

let grow_bytes (a : Bytes.t) n : Bytes.t =
  let b = Bytes.make n '\000' in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

(* [key]'s slot, made on the first touch: clean value 0, not corrupted *)
let slot (w : t) (key : int) : int =
  let s = Loc_store.get_key w.slots key in
  if s >= 0 then s
  else begin
    let s = w.nslots in
    if s = Bytes.length w.corrupted then begin
      let n = 2 * s in
      w.clean <- grow_ba w.clean n;
      w.faulty <- grow_ba w.faulty n;
      w.corrupted <- grow_bytes w.corrupted n;
      w.adds <- grow_bytes w.adds n
    end;
    Bigarray.Array1.unsafe_set w.clean s 0L;
    w.nslots <- s + 1;
    Loc_store.set_key w.slots key s;
    s
  end

let pos (w : t) = w.pos
let nchanged (w : t) = w.nchanged
let changed (w : t) k = w.changed.(k)
let changed_corrupted (w : t) k = Bytes.get w.changed_corrupt k <> '\000'

let is_corrupted_slot (w : t) s = Bytes.unsafe_get w.corrupted s <> '\000'

let faulty_of_slot (w : t) s =
  if is_corrupted_slot w s then Bigarray.Array1.unsafe_get w.faulty s
  else Bigarray.Array1.unsafe_get w.clean s

let clean_value (w : t) key =
  let s = Loc_store.get_key w.slots key in
  if s < 0 then Value.zero else Bigarray.Array1.unsafe_get w.clean s

let faulty_value (w : t) key =
  let s = Loc_store.get_key w.slots key in
  if s < 0 then Value.zero else faulty_of_slot w s

let is_corrupted (w : t) key =
  w.ncorrupted > 0
  &&
  let s = Loc_store.get_key w.slots key in
  s >= 0 && is_corrupted_slot w s

let corrupted_count (w : t) = w.ncorrupted

(** Error magnitude (Equation 2) of a corrupted location right now. *)
let magnitude (w : t) key : float option =
  let s = Loc_store.get_key w.slots key in
  if s < 0 || not (is_corrupted_slot w s) then None
  else
    Some
      (Value.error_magnitude
         ~correct:(Bigarray.Array1.unsafe_get w.clean s)
         ~faulty:(Bigarray.Array1.unsafe_get w.faulty s))

let last_write_adds (w : t) key =
  let s = Loc_store.get_key w.slots key in
  s >= 0 && Bytes.unsafe_get w.adds s <> '\000'

(* record slot [s]'s faulty value [fv] against its (already updated)
   clean value *)
let set_faulty (w : t) s fv =
  let was = is_corrupted_slot w s in
  if Int64.equal fv (Bigarray.Array1.unsafe_get w.clean s) then begin
    if was then begin
      Bytes.unsafe_set w.corrupted s '\000';
      w.ncorrupted <- w.ncorrupted - 1
    end
  end
  else begin
    if not was then begin
      Bytes.unsafe_set w.corrupted s '\001';
      w.ncorrupted <- w.ncorrupted + 1
    end;
    Bigarray.Array1.unsafe_set w.faulty s fv
  end

(** Force a pending [Mem] fault whose trigger sequence has been
    reached into the faulty shadow state.  Memory faults leave no write
    event in the trace, so the walker applies them itself: [feed] does
    this before each event; analyses that snapshot state between events
    (e.g. at a region entry) call it explicitly with the next event's
    sequence number. *)
let apply_pending_fault (w : t) ~(next_seq : int) : unit =
  match w.fault with
  | Some (Machine.Mem { seq; addr; corruption })
    when (not w.fault_applied) && next_seq >= seq ->
      w.fault_applied <- true;
      let s = slot w (Loc.mem_key addr) in
      set_faulty w s (Machine.corrupt corruption (faulty_of_slot w s))
  | Some (Machine.Mem _ | Machine.Write _ | Machine.Cache_fault _) | None -> ()

let add_changed (w : t) key =
  let n = w.nchanged in
  if n = Array.length w.changed then begin
    let a = Array.make (2 * n) 0 in
    Array.blit w.changed 0 a 0 n;
    w.changed <- a;
    w.changed_corrupt <- grow_bytes w.changed_corrupt (2 * n);
    w.fvs <- grow_ba w.fvs (2 * n)
  end;
  w.changed.(n) <- key;
  w.nchanged <- n + 1

(* Apply the writes of one aligned step whose two runs wrote different
   locations (a store through a corrupted address) or several: the
   clean run's [ncw] writes from position [ca] of the clean columns, the
   faulty run's from the cursor.  [changed] lists the locations only the
   faulty run wrote, last written first, then the clean run's written
   locations, last first.  [Acl] updates its statuses in this order, so
   it fixes the order of the deaths and maskings the ACL fixture pins.
   A location only the clean run wrote keeps its faulty value from
   before the step, so those are read before the clean state moves. *)
let apply_writes (w : t) ~ca ~ncw (cf : Trace.cursor) =
  let nfw = cf.nwrites in
  let in_clean key =
    let rec go k = k < ncw && (w.ckeys.(ca + k) = key || go (k + 1)) in
    go 0
  in
  (* the faulty-only keys, in order of their first write *)
  w.nchanged <- 0;
  for k = 0 to nfw - 1 do
    let key = cf.wkeys.(k) in
    let rec seen j = j < w.nchanged && (w.changed.(j) = key || seen (j + 1)) in
    if not (in_clean key || seen 0) then add_changed w key
  done;
  (* reversed, then the clean keys, last first *)
  let nf = w.nchanged in
  for j = 0 to (nf / 2) - 1 do
    let a = w.changed.(j) in
    w.changed.(j) <- w.changed.(nf - 1 - j);
    w.changed.(nf - 1 - j) <- a
  done;
  for k = ncw - 1 downto 0 do
    add_changed w w.ckeys.(ca + k)
  done;
  (* each changed location's faulty value after the step *)
  for j = 0 to w.nchanged - 1 do
    let key = w.changed.(j) in
    let v = ref (faulty_of_slot w (slot w key)) in
    for k = 0 to nfw - 1 do
      if cf.wkeys.(k) = key then v := Bigarray.Array1.get cf.wvals k
    done;
    Bigarray.Array1.set w.fvs j !v
  done;
  for k = 0 to ncw - 1 do
    Bigarray.Array1.unsafe_set w.clean
      (slot w w.ckeys.(ca + k))
      (Bigarray.Array1.unsafe_get w.cvals (ca + k))
  done;
  for j = 0 to w.nchanged - 1 do
    set_faulty w (slot w w.changed.(j)) (Bigarray.Array1.get w.fvs j)
  done;
  for j = 0 to w.nchanged - 1 do
    Bytes.set w.changed_corrupt j
      (Bytes.unsafe_get w.corrupted (slot w w.changed.(j)))
  done

let adds_op = function
  | Trace.OBin (Op.Fadd | Op.Fsub) -> '\001'
  | Trace.OBin _ | Trace.OUn _ | Trace.OConst | Trace.OLoad | Trace.OStore
  | Trace.OJmp | Trace.OBr _ | Trace.OCall | Trace.ORet | Trace.OIntr _
  | Trace.OMark _ ->
      '\000'

let diverge (w : t) =
  let d = Diverged w.pos in
  w.diverged <- Some d;
  d

(** Align the faulty run's next event with the clean event at the same
    index. *)
let feed (w : t) (cf : Trace.cursor) : step =
  match w.diverged with
  | Some d -> d
  | None ->
      let t = w.clean_trace and i = w.pos in
      if i >= Trace.length t || not (Trace.same_control_at t i cf) then
        (* a control-path difference, or the clean run is shorter (the
           faulty run hangs): the common prefix has been consumed *)
        diverge w
      else begin
        (* a pending memory fault lands before its trigger event *)
        apply_pending_fault w ~next_seq:cf.seq;
        let ca = Trace.writes_at t i and ncw = Trace.nwrites t i in
        let nfw = cf.nwrites in
        if nfw = 0 && ncw = 0 then w.nchanged <- 0
        else if nfw = 1 && ncw = 1 && w.ckeys.(ca) = cf.wkeys.(0) then begin
          let key = cf.wkeys.(0) in
          let s = slot w key in
          Bigarray.Array1.unsafe_set w.clean s
            (Bigarray.Array1.unsafe_get w.cvals ca);
          set_faulty w s (Bigarray.Array1.get cf.wvals 0);
          Bytes.unsafe_set w.adds s (adds_op cf.op);
          w.changed.(0) <- key;
          Bytes.unsafe_set w.changed_corrupt 0 (Bytes.unsafe_get w.corrupted s);
          w.nchanged <- 1
        end
        else begin
          apply_writes w ~ca ~ncw cf;
          let a = adds_op cf.op in
          for k = 0 to nfw - 1 do
            Bytes.unsafe_set w.adds (slot w cf.wkeys.(k)) a
          done
        end;
        w.pos <- i + 1;
        Step
      end

(** The faulty run has ended: [End] if the clean run ends here too. *)
let finish (w : t) : step =
  match w.diverged with
  | Some d -> d
  | None -> if w.pos >= Trace.length w.clean_trace then End else diverge w

(* raised out of a replay to stop it once alignment has diverged or
   ended, carrying the divergence index *)
exception Stop of int option

(** Feed the events [replay] pushes to [w], passing the faulty event of
    every aligned step to [f], and stop the replay as soon as alignment
    diverges or ends.  Returns the divergence index, if any. *)
let drive (w : t) (replay : (Trace.cursor -> unit) -> unit)
    (f : Trace.cursor -> unit) : int option =
  let stop = function
    | Step -> ()
    | Diverged i -> raise_notrace (Stop (Some i))
    | End -> raise_notrace (Stop None)
  in
  try
    replay (fun ev ->
        match feed w ev with Step -> f ev | (Diverged _ | End) as s -> stop s);
    stop (finish w);
    None
  with Stop d -> d
