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

let analyze ?fault ~(clean : Trace.t) ~(faulty : Trace.t) () : result =
  analyze_replay ?fault ~clean ~replay:(fun f -> Trace.iter f faulty) ()
