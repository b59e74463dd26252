(** Lockstep alignment of a faulty trace against its fault-free twin.

    While the two traces execute the same control path (same function
    and pc per event), the walker maintains the machine state of both
    runs and the set of *corrupted* locations — locations whose
    faulty-run value differs from the fault-free value.  This is the
    value-based notion of corruption from the paper (stricter than
    taint: a masked value is clean again even though it depends on the
    fault).

    Locations are numbered by the clean trace's {!Trace.slots}, the one
    dense numbering the access index and [Acl] share.  A faulty write
    takes the slot the clean trace's column holds at the same access
    position when the two keys agree, with no lookup; any other key (a
    store through a corrupted address, say) is looked up, and a location
    the clean run never touches is numbered after the clean ones.  The
    shadow state lives in flat arrays indexed by slot: the clean run's
    value and the faulty run's value as unboxed int64s, a corrupted
    flag, and whether the faulty run's last write was a floating-point
    addition.  The faulty value means something only where the flag is
    set: everywhere else the faulty run's value is the clean one.  The
    helpers a step runs are inlined, so no int64 is boxed on the way:
    a step allocates nothing and writes no pointer.

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
  cvals : ba;  (** ... values ... *)
  cslots : Trace.slot_col;  (** ... and slots, by access position *)
  numbering : Trace.slots;
  extra : int Loc_store.t;
      (** key -> slot for locations the clean run never touches, -1 for
          others *)
  mutable pos : int;  (** next event index to process *)
  mutable nslots : int;
  mutable clean : ba;  (** by slot: the clean run's value *)
  mutable faulty : ba;  (** by slot: the faulty run's value, if corrupted *)
  mutable corrupted : Bytes.t;  (** by slot: ['\001'] if corrupted *)
  mutable adds : Bytes.t;
      (** by slot: ['\001'] if the faulty run's last write to it, up to
          the latest step, was an [OBin Fadd] or [OBin Fsub] *)
  mutable ncorrupted : int;
  mutable changed : int array;  (** keys written by the latest step *)
  mutable changed_slots : int array;  (** their slots *)
  mutable changed_corrupt : Bytes.t;
      (** by [changed] position: ['\001'] if corrupted after the step *)
  mutable nchanged : int;
  mutable fvs : ba;  (** scratch: faulty values after a many-write step *)
  span : int array;  (** scratch: the clean event's {!Trace.spans} *)
  fault : Machine.fault option;
  mutable fault_applied : bool;
  mutable diverged : step option;  (** [Some (Diverged i)] once diverged *)
}

let ba n : ba = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n

let create ?fault ~(clean : Trace.t) () : t =
  let numbering = Trace.slots clean in
  let n = max 64 (Trace.nslots numbering) in
  let cl = ba n in
  Bigarray.Array1.fill cl 0L;
  {
    clean_trace = clean;
    ckeys = Trace.keys clean;
    cvals = Trace.values clean;
    cslots = Trace.slot_column numbering;
    numbering;
    extra = Loc_store.create (-1);
    pos = 0;
    nslots = Trace.nslots numbering;
    clean = cl;
    faulty = ba n;
    corrupted = Bytes.make n '\000';
    adds = Bytes.make n '\000';
    ncorrupted = 0;
    changed = Array.make 8 0;
    changed_slots = Array.make 8 0;
    changed_corrupt = Bytes.make 8 '\000';
    nchanged = 0;
    fvs = ba 8;
    span = [| 0; 0; 0 |];
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

let grow_ints (a : int array) n : int array =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [key]'s slot, looked up: the clean trace's, or one numbered after the
   clean ones on the first touch (clean value 0, not corrupted) *)
let slot (w : t) (key : int) : int =
  let s = Trace.slot_of_key w.numbering key in
  if s >= 0 then s
  else
    let s = Loc_store.get_key w.extra key in
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
      Loc_store.set_key w.extra key s;
      s
    end

(* the slot of [key], accessed at clean access position [p] (a valid
   one): the column's when the clean run accessed the same location
   there *)
let[@inline] slot_at (w : t) p key =
  if Array.unsafe_get w.ckeys p = key then
    Int32.to_int (Bigarray.Array1.unsafe_get w.cslots p)
  else slot w key

let find (w : t) key =
  let s = Trace.slot_of_key w.numbering key in
  if s >= 0 then s else Loc_store.get_key w.extra key

let pos (w : t) = w.pos
let nchanged (w : t) = w.nchanged
let changed (w : t) k = w.changed.(k)
let changed_slot (w : t) k = w.changed_slots.(k)
let changed_corrupted (w : t) k = Bytes.get w.changed_corrupt k <> '\000'

let[@inline] is_corrupted_slot (w : t) s =
  Bytes.unsafe_get w.corrupted s <> '\000'

let[@inline] faulty_of_slot (w : t) s =
  if is_corrupted_slot w s then Bigarray.Array1.unsafe_get w.faulty s
  else Bigarray.Array1.unsafe_get w.clean s

let clean_value (w : t) key =
  let s = find w key in
  if s < 0 then Value.zero else Bigarray.Array1.unsafe_get w.clean s

let faulty_value (w : t) key =
  let s = find w key in
  if s < 0 then Value.zero else faulty_of_slot w s

let is_corrupted (w : t) key =
  w.ncorrupted > 0
  &&
  let s = find w key in
  s >= 0 && is_corrupted_slot w s

let corrupted_count (w : t) = w.ncorrupted

(** Error magnitude (Equation 2) of a corrupted location right now. *)
let magnitude (w : t) key : float option =
  let s = find w key in
  if s < 0 || not (is_corrupted_slot w s) then None
  else
    Some
      (Value.error_magnitude
         ~correct:(Bigarray.Array1.unsafe_get w.clean s)
         ~faulty:(Bigarray.Array1.unsafe_get w.faulty s))

(* [Value.error_magnitude] of two bit patterns, local so the values it
   takes and the float it returns stay unboxed *)
let[@inline] error_magnitude (correct : int64) (faulty : int64) =
  let c = Int64.float_of_bits correct and f = Int64.float_of_bits faulty in
  if Float.is_nan c || Float.is_nan f then Float.nan
  else if Float.equal c f then 0.0
  else if Float.equal c 0.0 then Float.infinity
  else Float.abs (c -. f) /. Float.abs c

let magnitude_to (w : t) s (dst : float array) i =
  dst.(i) <-
    (if is_corrupted_slot w s then
       error_magnitude
         (Bigarray.Array1.unsafe_get w.clean s)
         (Bigarray.Array1.unsafe_get w.faulty s)
     else 0.0)

let last_write_adds (w : t) s = Bytes.get w.adds s <> '\000'

(* record slot [s]'s faulty value [fv] against its (already updated)
   clean value *)
let[@inline] set_faulty (w : t) s fv =
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

let add_changed (w : t) key s =
  let n = w.nchanged in
  if n = Array.length w.changed then begin
    w.changed <- grow_ints w.changed (2 * n);
    w.changed_slots <- grow_ints w.changed_slots (2 * n);
    w.changed_corrupt <- grow_bytes w.changed_corrupt (2 * n);
    w.fvs <- grow_ba w.fvs (2 * n)
  end;
  w.changed.(n) <- key;
  w.changed_slots.(n) <- s;
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
  (* the faulty-only keys, in order of their first write *)
  w.nchanged <- 0;
  for k = 0 to nfw - 1 do
    let key = cf.wkeys.(k) in
    let known = ref false in
    for j = 0 to ncw - 1 do
      if w.ckeys.(ca + j) = key then known := true
    done;
    for j = 0 to w.nchanged - 1 do
      if w.changed.(j) = key then known := true
    done;
    if not !known then add_changed w key (slot w key)
  done;
  (* reversed, then the clean keys, last first *)
  let nf = w.nchanged in
  for j = 0 to (nf / 2) - 1 do
    let a = w.changed.(j) and s = w.changed_slots.(j) in
    w.changed.(j) <- w.changed.(nf - 1 - j);
    w.changed_slots.(j) <- w.changed_slots.(nf - 1 - j);
    w.changed.(nf - 1 - j) <- a;
    w.changed_slots.(nf - 1 - j) <- s
  done;
  for k = ncw - 1 downto 0 do
    add_changed w w.ckeys.(ca + k)
      (Int32.to_int (Bigarray.Array1.get w.cslots (ca + k)))
  done;
  (* each changed location's faulty value after the step: its last
     faulty write's, or the value it held *)
  for j = 0 to w.nchanged - 1 do
    let key = w.changed.(j) in
    let last = ref (-1) in
    for k = 0 to nfw - 1 do
      if cf.wkeys.(k) = key then last := k
    done;
    if !last >= 0 then Bigarray.Array1.set w.fvs j (Bigarray.Array1.get cf.wvals !last)
    else Bigarray.Array1.set w.fvs j (faulty_of_slot w w.changed_slots.(j))
  done;
  for k = 0 to ncw - 1 do
    Bigarray.Array1.unsafe_set w.clean
      (Int32.to_int (Bigarray.Array1.get w.cslots (ca + k)))
      (Bigarray.Array1.unsafe_get w.cvals (ca + k))
  done;
  for j = 0 to w.nchanged - 1 do
    set_faulty w w.changed_slots.(j) (Bigarray.Array1.get w.fvs j)
  done;
  for j = 0 to w.nchanged - 1 do
    Bytes.set w.changed_corrupt j
      (Bytes.unsafe_get w.corrupted w.changed_slots.(j))
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
      let i = w.pos in
      if not (Trace.aligned_spans w.clean_trace i cf w.span) then
        (* a control-path difference, or the clean run is shorter (the
           faulty run hangs): the common prefix has been consumed *)
        diverge w
      else begin
        (* a pending memory fault lands before its trigger event *)
        apply_pending_fault w ~next_seq:cf.seq;
        let ca = w.span.(0) + w.span.(1) and ncw = w.span.(2) in
        let nfw = cf.nwrites in
        if nfw = 0 && ncw = 0 then w.nchanged <- 0
        else if nfw = 1 && ncw = 1 && w.ckeys.(ca) = cf.wkeys.(0) then begin
          let s = Int32.to_int (Bigarray.Array1.unsafe_get w.cslots ca) in
          Bigarray.Array1.unsafe_set w.clean s
            (Bigarray.Array1.unsafe_get w.cvals ca);
          set_faulty w s (Bigarray.Array1.get cf.wvals 0);
          Bytes.unsafe_set w.adds s (adds_op cf.op);
          w.changed.(0) <- cf.wkeys.(0);
          w.changed_slots.(0) <- s;
          Bytes.unsafe_set w.changed_corrupt 0 (Bytes.unsafe_get w.corrupted s);
          w.nchanged <- 1
        end
        else begin
          apply_writes w ~ca ~ncw cf;
          let a = adds_op cf.op in
          for k = 0 to nfw - 1 do
            let key = cf.wkeys.(k) in
            let s = if k < ncw then slot_at w (ca + k) key else slot w key in
            Bytes.unsafe_set w.adds s a
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
