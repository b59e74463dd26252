(* The reference ACL walk: the boxed alignment and ACL analysis that
   [Align] and [Acl] replaced with a walk over the clean trace's columns,
   a reused event cursor and int-keyed shadow state.  It aligns whole
   [Trace.event] records: the clean event at each index is built from the
   stored trace, the faulty event from the cursor, locations are
   [Loc.t]s and values are boxed, with a [same] sentinel for the faulty
   value of an uncorrupted location.  [Acl.analyze_replay] must return
   exactly its result; see [check_generated] and test_acl_ref.ml. *)

module Align = struct
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
        let loc = Loc.Mem addr in
        set_faulty w loc (Machine.corrupt corruption (faulty_value w loc))
    | Some (Machine.Mem _ | Machine.Write _ | Machine.Cache_fault _) | None -> ()

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

end

open Acl

(* The faulty run's accesses to a location since its latest faulty
   write, shared by every record opened in that span: the last read, and
   whether a faulty write has ended the span. *)
type chain = { mutable last_read : int; mutable written : bool }

(* One corrupting write: the corrupted value that the write at step
   [opened] left in [loc], and its error magnitude.  The record is the
   location's current one until a later write of either run replaces it
   with a new record or kills it (makes the location clean) at step
   [ended].  Its value is alive from [opened] until its last read, the
   chain's last read if that comes after [opened]; nothing about that
   is known before the faulty run has moved past the read. *)
type record = {
  loc : Loc.t;
  chain : chain;
  opened : int;
  mag : float;
  mutable ended : int;  (** [max_int] while current *)
  mutable killed : bool;
}

(* the empty slots of the chain and record stores, compared physically;
   never mutated *)
let no_chain = { last_read = -1; written = false }

let no_record =
  { loc = Loc.Mem (-1); chain = no_chain; opened = 0; mag = 0.0;
    ended = max_int; killed = false }

let read_later (r : record) = r.chain.last_read > r.opened

(* Does [r] die as a dead corrupted location, and not by a later write?
   It does when it is still current the step after its last read, in
   the aligned part of the run ([steps] steps), and no faulty write to
   its location ever follows.  A record replaced at that very step dies
   first; one killed there was overwritten by a clean value. *)
let dies ~steps (r : record) =
  let s = r.chain.last_read + 1 in
  read_later r && (not r.chain.written) && s < steps
  && (s < r.ended || (s = r.ended && not r.killed))

(* The net change of the ACL count at each step, for [settle]: slot [s]
   holds it while one analysis runs and 0 at any other time.  One buffer
   per domain, grown to the longest aligned run the domain has settled,
   so an injection allocates no steps-sized array. *)
let deltas_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(* The ACL table, from records settled by the whole faulty run: the
   count rises at each record that will be read when it opens and falls
   when that record stops being alive; deaths and repeated-addition
   maskings that a dead corrupted location rules out are dropped. *)
let settle ~(clean : Trace.t) ~steps ~divergence (records : record list)
    (killed : record list) (maskings : (masking * record) list) : result =
  let dies = dies ~steps in
  let buf = Domain.DLS.get deltas_key in
  if Array.length !buf < steps then buf := Array.make steps 0;
  let delta = !buf in
  List.iter
    (fun r ->
      if read_later r then begin
        delta.(r.opened) <- delta.(r.opened) + 1;
        let fall = min (r.chain.last_read + 1) r.ended in
        if fall < steps then delta.(fall) <- delta.(fall) - 1
      end)
    records;
  let series = ref [] and count = ref 0 and peak = ref 0 in
  (* the count after every step from 0 on, at step 0 and at each step
     where it moves; the sweep leaves the buffer zero *)
  for step = 0 to steps - 1 do
    let d = delta.(step) in
    if d <> 0 || step = 0 then begin
      delta.(step) <- 0;
      count := !count + d;
      (* an aligned step's two events share seq, line and region *)
      series := ((Trace.get clean step).seq, !count) :: !series;
      if !count > !peak then peak := !count
    end
  done;
  let death cause r index =
    let ev = Trace.get clean index in
    {
      d_index = index;
      d_loc = r.loc;
      d_cause = cause;
      d_fed_forward = read_later r;
      d_line = ev.line;
      d_region = ev.region;
    }
  in
  (* in each step, the dead corrupted locations come first, the latest
     opened record first, then the overwrites in the order they ran: a
     stable sort keeps that order within a step *)
  let deaths =
    List.filter_map
      (fun r ->
        if dies r then Some (death Dead r (r.chain.last_read + 1)) else None)
      records
    @ List.filter_map
        (fun r -> if dies r then None else Some (death Overwritten r r.ended))
        (List.rev killed)
    |> List.stable_sort (fun a b -> Int.compare a.d_index b.d_index)
  in
  {
    series = Array.of_list (List.rev !series);
    deaths;
    maskings =
      List.rev maskings
      |> List.filter_map (fun (m, r) -> if dies r then None else Some m);
    divergence;
    peak = !peak;
    final = !count;
  }

(** The ACL table of the faulty run [replay] pushes, in one run.
    Alignment against [clean] decides which locations each step
    corrupts and which reads mask; a corrupted value's fate is settled
    by the faulty run's later accesses to its location, so the run is
    followed to its end, past any divergence. *)
let analyze_replay ?fault ~(clean : Trace.t)
    ~(replay : (Trace.event -> unit) -> unit) () : result =
  let w = Align.create ?fault ~clean () in
  (* each location's current record and open chain *)
  let current : record Loc_store.t = Loc_store.create no_record in
  let ncurrent = ref 0 in
  let chains : chain Loc_store.t = Loc_store.create no_chain in
  let nchains = ref 0 in
  (* newest first; each masking with the record that may rule it out *)
  let records = ref [] and killed = ref [] and maskings = ref [] in
  let open_record index loc mag =
    let chain =
      match Loc_store.get chains loc with
      | c when c != no_chain -> c
      | _ ->
          let c = { last_read = -1; written = false } in
          Loc_store.set chains loc c;
          incr nchains;
          c
    in
    let prev = Loc_store.get current loc in
    if prev != no_record then prev.ended <- index else incr ncurrent;
    let r = { loc; chain; opened = index; mag; ended = max_int; killed = false } in
    Loc_store.set current loc r;
    records := r :: !records
  in
  let kill index loc =
    match Loc_store.get current loc with
    | r when r == no_record -> ()
    | r ->
        r.ended <- index;
        r.killed <- true;
        Loc_store.set current loc no_record;
        decr ncurrent;
        killed := r :: !killed
  in
  (* the faulty event [index]'s accesses, against the open chains *)
  let follow index (ev : Trace.event) =
    if !nchains > 0 then begin
      for k = 0 to Array.length ev.reads - 1 do
        let c = Loc_store.get chains (fst ev.reads.(k)) in
        if c != no_chain then c.last_read <- index
      done;
      for k = 0 to Array.length ev.writes - 1 do
        let loc = fst ev.writes.(k) in
        let c = Loc_store.get chains loc in
        if c != no_chain then begin
          c.written <- true;
          Loc_store.set chains loc no_chain;
          decr nchains
        end
      done
    end
  in
  let read_corrupted (loc, _) =
    Loc_store.get current loc != no_record && Align.is_corrupted w loc
  in
  (* masking detection on reads of corrupted locations *)
  let detect_masking index (clean_ev : Trace.event) (faulty_ev : Trace.event)
      =
    let corrupted_reads =
      Array.to_list faulty_ev.reads |> List.filter read_corrupted
    in
    let outputs_clean =
      Array.length faulty_ev.writes > 0
      && Array.for_all
           (fun (loc, _) -> not (Align.is_corrupted w loc))
           faulty_ev.writes
    in
    let emit kind loc =
      maskings :=
        ( {
            m_index = index;
            m_loc = loc;
            m_kind = kind;
            m_line = faulty_ev.line;
            m_region = faulty_ev.region;
            m_instance = faulty_ev.instance;
          },
          no_record )
        :: !maskings
    in
    match (faulty_ev.op, clean_ev.op) with
    | Trace.OBr tf, Trace.OBr tc ->
        if Bool.equal tf tc then
          List.iter (fun (loc, _) -> emit Cond_mask loc) corrupted_reads
    | Trace.OIntr s, _ when String.length s > 6
                            && String.equal (String.sub s 0 6) "print:" ->
        let fmt = String.sub s 6 (String.length s - 6) in
        let faulty_args = Array.to_list faulty_ev.reads |> List.map snd in
        let clean_args = Array.to_list clean_ev.reads |> List.map snd in
        let rendered_f = Machine.format_output fmt faulty_args in
        let rendered_c = Machine.format_output fmt clean_args in
        if String.equal rendered_f rendered_c then
          List.iter (fun (loc, _) -> emit Print_mask loc) corrupted_reads
    | Trace.OBin op, _ when outputs_clean && Op.bin_is_shift op ->
        List.iter (fun (loc, _) -> emit Shift_mask loc) corrupted_reads
    | Trace.OBin op, _ when outputs_clean && Op.bin_is_compare op ->
        (* a compare with a corrupted operand that still resolves to the
           fault-free boolean: the Conditional Statement pattern at its
           decision site *)
        List.iter (fun (loc, _) -> emit Cond_mask loc) corrupted_reads
    | Trace.OUn op, _ when outputs_clean && Op.un_is_truncation op ->
        List.iter (fun (loc, _) -> emit Trunc_mask loc) corrupted_reads
    | (Trace.OBin _ | Trace.OUn _ | Trace.OConst | Trace.OLoad
      | Trace.OStore | Trace.OIntr _ | Trace.OCall | Trace.ORet
      | Trace.OJmp | Trace.OMark _ | Trace.OBr _), _ ->
        if outputs_clean then
          List.iter (fun (loc, _) -> emit Other_mask loc) corrupted_reads
  in
  (* corruption status update for one written location *)
  let update_written index (faulty_ev : Trace.event) loc =
    if Align.is_corrupted w loc then begin
      let prev = Loc_store.get current loc in
      let new_mag =
        match Align.magnitude w loc with Some m -> m | None -> 0.0
      in
      (* repeated-addition check against the magnitude it replaces *)
      (match faulty_ev.op with
      | Trace.OStore when prev != no_record && Array.length faulty_ev.reads > 0
        ->
          let is_add =
            match Align.last_writer w (fst faulty_ev.reads.(0)) with
            | Some (Trace.OBin (Op.Fadd | Op.Fsub)) -> true
            | Some _ | None -> false
          in
          if
            is_add && Float.is_finite prev.mag && Float.is_finite new_mag
            && new_mag < prev.mag
          then
            maskings :=
              ( {
                  m_index = index;
                  m_loc = loc;
                  m_kind = Repeated_add { before = prev.mag; after = new_mag };
                  m_line = faulty_ev.line;
                  m_region = faulty_ev.region;
                  m_instance = faulty_ev.instance;
                },
                prev )
              :: !maskings
      | _ -> ());
      open_record index loc new_mag
    end
    else kill index loc
  in
  let rec update_all index faulty_ev = function
    | [] -> ()
    | loc :: rest ->
        update_written index faulty_ev loc;
        update_all index faulty_ev rest
  in
  let events = ref 0 in
  replay (fun ev ->
      follow !events ev;
      incr events;
      (* once diverged, [feed] only reports the divergence again *)
      match Align.feed w ev with
      | Align.Step { index; clean_ev; faulty_ev; changed } ->
          (* reads matter only while some location is corrupted *)
          if !ncurrent > 0 && Array.exists read_corrupted faulty_ev.reads then
            detect_masking index clean_ev faulty_ev;
          update_all index faulty_ev changed
      | Align.Diverged _ | Align.End -> ());
  let divergence =
    match Align.finish w with
    | Align.Diverged i -> Some i
    | Align.End | Align.Step _ -> None
  in
  settle ~clean ~steps:(Align.pos w) ~divergence !records !killed !maskings


(* --- comparing the two walks ------------------------------------------- *)

(* both walks over the faulty run [replay] produces; the reference takes
   each event as a record built from the cursor *)
let both ?fault ~(clean : Trace.t) (replay : (Trace.cursor -> unit) -> unit) :
    Acl.result * result =
  ( Acl.analyze_replay ?fault ~clean ~replay (),
    analyze_replay ?fault ~clean
      ~replay:(fun f -> replay (fun c -> f (Trace.event_of_cursor c)))
      () )

(* the first field in which two results differ, if any *)
let difference (a : Acl.result) (b : result) : string option =
  if compare a.series b.series <> 0 then Some "series"
  else if a.peak <> b.peak then Some "peak"
  else if a.final <> b.final then Some "final"
  else if compare a.deaths b.deaths <> 0 then Some "deaths"
  else if compare a.maskings b.maskings <> 0 then Some "maskings"
  else if a.divergence <> b.divergence then Some "divergence"
  else None

(* A generated program (with a mark per statement and a final print)
   under two faults drawn from [seed]: a random model's corruption of
   the value a random writing instruction writes, and of a memory word
   just before a random load of it.  [None] when both walks agree on
   both faults, else the fault and the first field that differs. *)
let check_generated ~seed (stmts : Ast.stmt list) :
    (Machine.fault * string) option =
  let prog, iter_mark = Gen_prog.observed_program stmts in
  let clean_r, clean = Machine.run_traced ~iter_mark prog in
  let n = clean_r.Machine.instructions in
  let writers =
    Array.of_list
      (List.filter_map
         (fun i -> if Trace.nwrites clean i > 0 then Some (Trace.seq clean i) else None)
         (List.init (Trace.length clean) Fun.id))
  in
  let loads = Gen_prog.loads clean in
  let rng = Rng.create ~seed in
  let corruption () =
    Fault_model.sample (Rng.choose rng Gen_prog.models) rng ~bits:(1 + Rng.int rng 64)
  in
  let write =
    let seq = if writers = [||] then Rng.int rng (max 1 n) else Rng.choose rng writers in
    Machine.Write { seq; corruption = corruption () }
  in
  let mem =
    let seq, addr =
      if loads = [||] then (Rng.int rng (max 1 n), Rng.int rng prog.Prog.mem_size)
      else Rng.choose rng loads
    in
    Machine.Mem { seq; addr; corruption = corruption () }
  in
  List.find_map
    (fun fault ->
      let replay f =
        ignore
          (Machine.run_sink ~budget:(20 * max 1 n) ~iter_mark ~fault ~sink:f prog)
      in
      let fresh, reference = both ~fault ~clean replay in
      Option.map (fun what -> (fault, what)) (difference fresh reference))
    [ write; mem ]
