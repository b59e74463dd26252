(** The Alive-Corrupted-Locations (ACL) table.

    Walks a faulty trace aligned against its fault-free twin and
    maintains, after every dynamic instruction, the number of locations
    that are simultaneously
    {ul
    {- {e corrupted}: their faulty-run value differs from the
       fault-free value, and}
    {- {e alive}: the value will be referenced again before being
       overwritten.}}

    Besides the count series (Figure 7 of the paper), the analysis
    emits the two event streams from which resilience patterns are
    recognized:
    {ul
    {- {e death events} — a corrupted location stops being counted,
       either because a clean value overwrote it (Data Overwriting) or
       because it is never referenced again (Dead Corrupted
       Locations);}
    {- {e masking events} — an instruction consumed a corrupted operand
       but produced a clean result (Shifting, Truncation, Conditional
       Statement, output Truncation through a print format), or a
       self-accumulating store shrank the error magnitude of a location
       (Repeated Additions).}} *)

type mask_kind =
  | Shift_mask       (** corrupted bits shifted out *)
  | Trunc_mask       (** corrupted bits removed by trunc32/fptosi/f32 *)
  | Cond_mask        (** corrupted compare operand, same branch outcome *)
  | Print_mask       (** corrupted value, identical formatted output *)
  | Repeated_add of { before : float; after : float }
      (** error magnitude shrank through a self-accumulating addition *)
  | Other_mask       (** any other value-level masking (mul by 0, min/max...) *)

type masking = {
  m_index : int;   (** event index in the trace *)
  m_loc : Loc.t;   (** the corrupted location involved *)
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
  d_fed_forward : bool;
      (** the corrupted value was read at least once before dying *)
  d_line : int;
  d_region : int;
}

type result = {
  series : (int * int) array;
      (** (dynamic seq, ACL count) at every change point *)
  deaths : death list;
  maskings : masking list;
  divergence : int option;
  peak : int;    (** maximum ACL count observed *)
  final : int;   (** ACL count when alignment ended *)
}

let mask_kind_to_string = function
  | Shift_mask -> "shift"
  | Trunc_mask -> "truncation"
  | Cond_mask -> "conditional"
  | Print_mask -> "print-truncation"
  | Repeated_add _ -> "repeated-addition"
  | Other_mask -> "other"

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
  loc : int;  (** {!Loc.key} *)
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
  { loc = -1; chain = no_chain; opened = 0; mag = 0.0;
    ended = max_int; killed = false }

(* a location's current record and open chain; [no_state] for a
   location the walk has not opened a record on, never mutated *)
type state = { mutable current : record; mutable chain : chain }

let no_state = { current = no_record; chain = no_chain }

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
      series := (Trace.seq clean step, !count) :: !series;
      if !count > !peak then peak := !count
    end
  done;
  let death cause r index =
    {
      d_index = index;
      d_loc = Loc.of_key r.loc;
      d_cause = cause;
      d_fed_forward = read_later r;
      d_line = Trace.line clean index;
      d_region = Trace.region clean index;
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
    followed to its end, past any divergence.  Locations are
    {!Loc.key}s until [settle]. *)
let analyze_replay ?fault ~(clean : Trace.t)
    ~(replay : (Trace.cursor -> unit) -> unit) () : result =
  let w = Align.create ?fault ~clean () in
  (* each location's current record and open chain, in one lookup *)
  let states : state Loc_store.t = Loc_store.create no_state in
  let ncurrent = ref 0 and nchains = ref 0 in
  let state_for loc =
    match Loc_store.get_key states loc with
    | st when st != no_state -> st
    | _ ->
        let st = { current = no_record; chain = no_chain } in
        Loc_store.set_key states loc st;
        st
  in
  (* newest first; each masking with the record that may rule it out *)
  let records = ref [] and killed = ref [] and maskings = ref [] in
  let open_record index loc mag =
    let st = state_for loc in
    let chain =
      if st.chain != no_chain then st.chain
      else begin
        let c = { last_read = -1; written = false } in
        st.chain <- c;
        incr nchains;
        c
      end
    in
    let prev = st.current in
    if prev != no_record then prev.ended <- index else incr ncurrent;
    let r = { loc; chain; opened = index; mag; ended = max_int; killed = false } in
    st.current <- r;
    records := r :: !records
  in
  let kill index loc =
    let st = Loc_store.get_key states loc in
    let r = st.current in
    if r != no_record then begin
      r.ended <- index;
      r.killed <- true;
      st.current <- no_record;
      decr ncurrent;
      killed := r :: !killed
    end
  in
  (* the faulty event [index]'s accesses, against the open chains;
     [true] when it reads a location that holds a current record, which
     [reads_corrupted] must then confirm once the step is aligned *)
  let follow index (ev : Trace.cursor) =
    let hit = ref false in
    if !nchains > 0 || !ncurrent > 0 then begin
      for k = 0 to ev.nreads - 1 do
        let st = Loc_store.get_key states ev.rkeys.(k) in
        if st.chain != no_chain then st.chain.last_read <- index;
        if st.current != no_record then hit := true
      done;
      for k = 0 to ev.nwrites - 1 do
        let st = Loc_store.get_key states ev.wkeys.(k) in
        if st.chain != no_chain then begin
          st.chain.written <- true;
          st.chain <- no_chain;
          decr nchains
        end
      done
    end;
    !hit
  in
  (* a read of a corrupted location that has a record, after the step's
     writes (an event may write what it reads) *)
  let read_corrupted loc =
    (Loc_store.get_key states loc).current != no_record
    && Align.is_corrupted w loc
  in
  let reads_corrupted (ev : Trace.cursor) =
    let rec go k = k < ev.nreads && (read_corrupted ev.rkeys.(k) || go (k + 1)) in
    go 0
  in
  let masking index (ev : Trace.cursor) kind loc =
    {
      m_index = index;
      m_loc = Loc.of_key loc;
      m_kind = kind;
      m_line = ev.line;
      m_region = ev.region;
      m_instance = ev.instance;
    }
  in
  (* masking detection on reads of corrupted locations: the faulty event
     from the cursor, the clean one's op and reads from the columns *)
  let detect_masking index (ev : Trace.cursor) =
    let corrupted_reads =
      List.filter read_corrupted (List.init ev.nreads (fun k -> ev.rkeys.(k)))
    in
    let outputs_clean =
      ev.nwrites > 0
      &&
      let rec go k = k >= ev.nwrites || ((not (Align.is_corrupted w ev.wkeys.(k))) && go (k + 1)) in
      go 0
    in
    let emit kind loc = maskings := (masking index ev kind loc, no_record) :: !maskings in
    match (ev.op, Trace.op clean index) with
    | Trace.OBr tf, Trace.OBr tc ->
        if Bool.equal tf tc then List.iter (emit Cond_mask) corrupted_reads
    | Trace.OIntr s, _ when String.length s > 6
                            && String.equal (String.sub s 0 6) "print:" ->
        let fmt = String.sub s 6 (String.length s - 6) in
        let faulty_args =
          List.init ev.nreads (fun k -> Bigarray.Array1.get ev.rvals k)
        in
        let clean_args =
          let r = Trace.reads_at clean index and vals = Trace.values clean in
          List.init (Trace.nreads clean index) (fun k ->
              Bigarray.Array1.get vals (r + k))
        in
        let rendered_f = Machine.format_output fmt faulty_args in
        let rendered_c = Machine.format_output fmt clean_args in
        if String.equal rendered_f rendered_c then
          List.iter (emit Print_mask) corrupted_reads
    | Trace.OBin op, _ when outputs_clean && Op.bin_is_shift op ->
        List.iter (emit Shift_mask) corrupted_reads
    | Trace.OBin op, _ when outputs_clean && Op.bin_is_compare op ->
        (* a compare with a corrupted operand that still resolves to the
           fault-free boolean: the Conditional Statement pattern at its
           decision site *)
        List.iter (emit Cond_mask) corrupted_reads
    | Trace.OUn op, _ when outputs_clean && Op.un_is_truncation op ->
        List.iter (emit Trunc_mask) corrupted_reads
    | (Trace.OBin _ | Trace.OUn _ | Trace.OConst | Trace.OLoad
      | Trace.OStore | Trace.OIntr _ | Trace.OCall | Trace.ORet
      | Trace.OJmp | Trace.OMark _ | Trace.OBr _), _ ->
        if outputs_clean then List.iter (emit Other_mask) corrupted_reads
  in
  (* corruption status update for the step's [k]th written location *)
  let update_written index (ev : Trace.cursor) k =
    let loc = Align.changed w k in
    if Align.changed_corrupted w k then begin
      let prev = (state_for loc).current in
      let new_mag =
        match Align.magnitude w loc with Some m -> m | None -> 0.0
      in
      (* repeated-addition check against the magnitude it replaces *)
      (match ev.op with
      | Trace.OStore when prev != no_record && ev.nreads > 0 ->
          if
            Align.last_write_adds w ev.rkeys.(0)
            && Float.is_finite prev.mag && Float.is_finite new_mag
            && new_mag < prev.mag
          then
            maskings :=
              ( masking index ev
                  (Repeated_add { before = prev.mag; after = new_mag })
                  loc,
                prev )
              :: !maskings
      | _ -> ());
      open_record index loc new_mag
    end
    else kill index loc
  in
  let events = ref 0 in
  replay (fun ev ->
      let reads_current = follow !events ev in
      incr events;
      (* once diverged, [feed] only reports the divergence again *)
      match Align.feed w ev with
      | Align.Step ->
          let index = Align.pos w - 1 in
          if reads_current && reads_corrupted ev then detect_masking index ev;
          if !ncurrent > 0 || Align.corrupted_count w > 0 then
            for k = 0 to Align.nchanged w - 1 do
              update_written index ev k
            done
      | Align.Diverged _ | Align.End -> ());
  let divergence =
    match Align.finish w with
    | Align.Diverged i -> Some i
    | Align.End | Align.Step -> None
  in
  settle ~clean ~steps:(Align.pos w) ~divergence !records !killed !maskings

let analyze ?fault ~(clean : Trace.t) ~(faulty : Trace.t) () : result =
  analyze_replay ?fault ~clean ~replay:(Trace.replay faulty) ()
