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
       (Repeated Additions).}}

    Layout: every location is a slot of the clean trace's numbering
    ({!Trace.slots}, extended by {!Align} for locations only the faulty
    run touches), and per slot two int arrays hold the location's
    current record and open chain.  Records (key, chain, opened,
    ended, killed, magnitude) and chains (last read, written) are
    numbered in the order they open and stored as columns of grow-only
    buffers, one set per domain ([bufs] below), so neither a step nor a
    record allocates; only the result is built as lists and records. *)

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

(* The walk's working state, in flat arrays that one domain reuses from
   analysis to analysis, so neither a step nor a record allocates.

   A record is one corrupting write: the corrupted value that the write
   at step [opened] left in location [key], and its error magnitude
   [mag].  It is the location's current record until a later write of
   either run replaces it with a new record or kills it (makes the
   location clean) at step [ended].  Its value is alive from [opened]
   until its last read: its chain's last read, if that comes after
   [opened]; nothing about that is known before the faulty run has
   moved past the read.  A chain is the faulty run's accesses to a
   location since its latest faulty write, shared by every record
   opened in that span: the last read, and whether a faulty write has
   ended the span.

   Records and chains are numbered in the order they open, and their
   fields are columns indexed by that number.  Per slot of the walk's
   numbering (the clean trace's slots, then those [Align] adds for
   locations only the faulty run writes), [cur] holds the location's
   current record and [chn] its open chain, -1 for none. *)
type bufs = {
  mutable cur : int array;  (** by slot: current record, or -1 *)
  mutable chn : int array;  (** by slot: open chain, or -1 *)
  mutable nvalid : int;  (** slots below this are set for this analysis *)
  mutable ncurrent : int;  (** slots with a current record *)
  mutable nopen : int;  (** slots with an open chain *)
  (* records *)
  mutable r_key : int array;  (** {!Loc.key} *)
  mutable r_chain : int array;
  mutable r_opened : int array;
  mutable r_ended : int array;  (** [max_int] while current *)
  mutable r_killed : Bytes.t;
  mutable r_mag : float array;
  mutable nrecords : int;
  (* chains *)
  mutable c_last_read : int array;
  mutable c_written : Bytes.t;
  mutable nchains : int;
  mutable kills : int array;  (** killed records, in the order they died *)
  mutable nkills : int;
  (* the slots of the faulty event's reads and writes, set by [follow] *)
  mutable rslots : int array;
  mutable wslots : int array;
  span : int array;  (** the clean event's {!Trace.spans} *)
  mutable deltas : int array;
      (** for [settle]: the net change of the ACL count at each step
          while it runs, 0 at any other time *)
}

let fresh_bufs () =
  let ints n = Array.make n 0 in
  {
    cur = ints 0; chn = ints 0; nvalid = 0; ncurrent = 0; nopen = 0;
    r_key = ints 256; r_chain = ints 256; r_opened = ints 256;
    r_ended = ints 256; r_killed = Bytes.make 256 '\000';
    r_mag = Array.make 256 0.0; nrecords = 0;
    c_last_read = ints 256; c_written = Bytes.make 256 '\000'; nchains = 0;
    kills = ints 256; nkills = 0; rslots = ints 8; wslots = ints 8;
    span = ints 3;
    deltas = ints 0;
  }

(* One set per domain, grown to the largest analysis it has run.  An
   analysis takes it out of the slot while it runs, so one started from
   inside another's replay gets its own. *)
let bufs_key : bufs option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let take_bufs () =
  match Domain.DLS.get bufs_key with
  | Some b ->
      Domain.DLS.set bufs_key None;
      b
  | None -> fresh_bufs ()

let grow_ints (a : int array) n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bytes (a : Bytes.t) n =
  let b = Bytes.make n '\000' in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

(* slots [nvalid .. s] made valid: no record, no chain *)
let cover (b : bufs) s =
  if s >= b.nvalid then begin
    if s >= Array.length b.cur then begin
      let n = max (s + 1) (2 * Array.length b.cur) in
      b.cur <- grow_ints b.cur n;
      b.chn <- grow_ints b.chn n
    end;
    Array.fill b.cur b.nvalid (s + 1 - b.nvalid) (-1);
    Array.fill b.chn b.nvalid (s + 1 - b.nvalid) (-1);
    b.nvalid <- s + 1
  end

(* an analysis's start: the clean trace's [nslots] slots valid, nothing
   recorded *)
let reset (b : bufs) nslots =
  b.nvalid <- 0;
  b.ncurrent <- 0;
  b.nopen <- 0;
  b.nrecords <- 0;
  b.nchains <- 0;
  b.nkills <- 0;
  if nslots > 0 then cover b (nslots - 1)

let new_record (b : bufs) =
  let r = b.nrecords in
  if r = Array.length b.r_key then begin
    let n = 2 * r in
    b.r_key <- grow_ints b.r_key n;
    b.r_chain <- grow_ints b.r_chain n;
    b.r_opened <- grow_ints b.r_opened n;
    b.r_ended <- grow_ints b.r_ended n;
    b.r_killed <- grow_bytes b.r_killed n;
    let m = Array.make n 0.0 in
    Array.blit b.r_mag 0 m 0 r;
    b.r_mag <- m
  end;
  b.nrecords <- r + 1;
  r

let new_chain (b : bufs) =
  let c = b.nchains in
  if c = Array.length b.c_last_read then begin
    b.c_last_read <- grow_ints b.c_last_read (2 * c);
    b.c_written <- grow_bytes b.c_written (2 * c)
  end;
  b.c_last_read.(c) <- -1;
  Bytes.set b.c_written c '\000';
  b.nchains <- c + 1;
  c

let push_kill (b : bufs) r =
  let n = b.nkills in
  if n = Array.length b.kills then b.kills <- grow_ints b.kills (2 * n);
  b.kills.(n) <- r;
  b.nkills <- n + 1

let last_read (b : bufs) r = b.c_last_read.(b.r_chain.(r))
let read_later (b : bufs) r = last_read b r > b.r_opened.(r)

(* Does record [r] die as a dead corrupted location, and not by a later
   write?  It does when it is still current the step after its last
   read, in the aligned part of the run ([steps] steps), and no faulty
   write to its location ever follows.  A record replaced at that very
   step dies first; one killed there was overwritten by a clean value. *)
let dies (b : bufs) ~steps r =
  let s = last_read b r + 1 and ended = b.r_ended.(r) in
  read_later b r
  && Bytes.get b.c_written b.r_chain.(r) = '\000'
  && s < steps
  && (s < ended || (s = ended && Bytes.get b.r_killed r = '\000'))

(* The ACL table, from records settled by the whole faulty run: the
   count rises at each record that will be read when it opens and falls
   when that record stops being alive; deaths and repeated-addition
   maskings that a dead corrupted location rules out are dropped.  Each
   masking comes with the record that may rule it out, or -1. *)
let settle (b : bufs) ~(clean : Trace.t) ~steps ~divergence
    (maskings : (masking * int) list) : result =
  let dies = dies b ~steps in
  if Array.length b.deltas < steps then b.deltas <- Array.make steps 0;
  let delta = b.deltas in
  for r = 0 to b.nrecords - 1 do
    if read_later b r then begin
      let opened = b.r_opened.(r) in
      delta.(opened) <- delta.(opened) + 1;
      let fall = min (last_read b r + 1) b.r_ended.(r) in
      if fall < steps then delta.(fall) <- delta.(fall) - 1
    end
  done;
  (* the count after every step from 0 on, at step 0 and at each step
     where it moves; the second sweep leaves the buffer zero *)
  let npoints = ref 0 in
  for step = 0 to steps - 1 do
    if step = 0 || delta.(step) <> 0 then incr npoints
  done;
  let series = Array.make !npoints (0, 0) in
  let count = ref 0 and peak = ref 0 and point = ref 0 in
  for step = 0 to steps - 1 do
    let d = delta.(step) in
    if d <> 0 || step = 0 then begin
      delta.(step) <- 0;
      count := !count + d;
      (* an aligned step's two events share seq, line and region *)
      series.(!point) <- (Trace.seq clean step, !count);
      incr point;
      if !count > !peak then peak := !count
    end
  done;
  let death cause r index =
    {
      d_index = index;
      d_loc = Loc.of_key b.r_key.(r);
      d_cause = cause;
      d_fed_forward = read_later b r;
      d_line = Trace.line clean index;
      d_region = Trace.region clean index;
    }
  in
  (* In each step, the dead corrupted locations come first, the latest
     opened record first, then the overwrites in the order they ran.
     Kills ran in step order, so only the dead need sorting; the two
     runs are merged from their ends. *)
  let dead = ref [] in
  for r = 0 to b.nrecords - 1 do
    if dies r then dead := r :: !dead
  done;
  let dead = Array.of_list !dead in
  let dead_at r = last_read b r + 1 in
  Array.stable_sort (fun r r' -> Int.compare (dead_at r) (dead_at r')) dead;
  let deaths = ref [] and i = ref (Array.length dead - 1) in
  let take_dead_above index =
    while !i >= 0 && dead_at dead.(!i) > index do
      deaths := death Dead dead.(!i) (dead_at dead.(!i)) :: !deaths;
      decr i
    done
  in
  for k = b.nkills - 1 downto 0 do
    let r = b.kills.(k) in
    if not (dies r) then begin
      let index = b.r_ended.(r) in
      take_dead_above index;
      deaths := death Overwritten r index :: !deaths
    end
  done;
  take_dead_above (-1);
  {
    series;
    deaths = !deaths;
    maskings =
      List.fold_left
        (fun acc (m, r) -> if r >= 0 && dies r then acc else m :: acc)
        [] maskings;
    divergence;
    peak = !peak;
    final = !count;
  }

(** The ACL table of the faulty run [replay] pushes, in one run.
    Alignment against [clean] decides which locations each step
    corrupts and which reads mask; a corrupted value's fate is settled
    by the faulty run's later accesses to its location, so the run is
    followed to its end, past any divergence.  Locations are slots of
    the walk's numbering, keys in the records, {!Loc.t}s only in the
    result. *)
let analyze_replay ?fault ~(clean : Trace.t)
    ~(replay : (Trace.cursor -> unit) -> unit) () : result =
  let w = Align.create ?fault ~clean () in
  let b = take_bufs () in
  let numbering = Trace.slots clean in
  reset b (Trace.nslots numbering);
  let ckeys = Trace.keys clean and col = Trace.slot_column numbering in
  (* newest first; each masking with the record that may rule it out *)
  let maskings = ref [] in
  (* [key]'s slot, accessed at the clean access position [p + k] if
     [k < n]: the column's when the clean run accessed the same location
     there, else looked up; -1 for a location neither the clean run nor
     the walk has numbered, which holds no record and no chain *)
  let slot_at p k n key =
    if k < n && Array.unsafe_get ckeys (p + k) = key then
      Int32.to_int (Bigarray.Array1.unsafe_get col (p + k))
    else begin
      let s = Align.find w key in
      if s >= 0 then cover b s;
      s
    end
  in
  let open_record index key s r =
    let c =
      let c = b.chn.(s) in
      if c >= 0 then c
      else begin
        let c = new_chain b in
        b.chn.(s) <- c;
        b.nopen <- b.nopen + 1;
        c
      end
    in
    let prev = b.cur.(s) in
    if prev >= 0 then b.r_ended.(prev) <- index
    else b.ncurrent <- b.ncurrent + 1;
    b.r_key.(r) <- key;
    b.r_chain.(r) <- c;
    b.r_opened.(r) <- index;
    b.r_ended.(r) <- max_int;
    Bytes.set b.r_killed r '\000';
    b.cur.(s) <- r
  in
  let kill index s =
    let r = b.cur.(s) in
    if r >= 0 then begin
      b.r_ended.(r) <- index;
      Bytes.set b.r_killed r '\001';
      b.cur.(s) <- -1;
      b.ncurrent <- b.ncurrent - 1;
      push_kill b r
    end
  in
  (* the faulty event [index]'s accesses, against the open chains, each
     at the slot [rslots]/[wslots] keeps for the step; [true] when it
     reads a location that holds a current record, which
     [reads_corrupted] must then confirm once the step is aligned *)
  let follow index (ev : Trace.cursor) =
    let hit = ref false in
    if b.nopen > 0 || b.ncurrent > 0 then begin
      let nr = ev.nreads and nw = ev.nwrites in
      if nr > Array.length b.rslots then b.rslots <- Array.make nr 0;
      if nw > Array.length b.wslots then b.wslots <- Array.make nw 0;
      let span = b.span in
      if not (Trace.spans clean index span) then Array.fill span 0 3 0;
      let cr = span.(0) and cnr = span.(1) and cnw = span.(2) in
      for k = 0 to nr - 1 do
        let s = slot_at cr k cnr ev.rkeys.(k) in
        b.rslots.(k) <- s;
        if s >= 0 then begin
          let c = b.chn.(s) in
          if c >= 0 then b.c_last_read.(c) <- index;
          if b.cur.(s) >= 0 then hit := true
        end
      done;
      for k = 0 to nw - 1 do
        let s = slot_at (cr + cnr) k cnw ev.wkeys.(k) in
        b.wslots.(k) <- s;
        if s >= 0 then begin
          let c = b.chn.(s) in
          if c >= 0 then begin
            Bytes.set b.c_written c '\001';
            b.chn.(s) <- -1;
            b.nopen <- b.nopen - 1
          end
        end
      done
    end;
    !hit
  in
  (* is the faulty event's [k]th read, after the step's writes (an event
     may write what it reads), of a corrupted location with a record? *)
  let read_corrupted k =
    let s = b.rslots.(k) in
    s >= 0 && b.cur.(s) >= 0 && Align.is_corrupted_slot w s
  in
  let reads_corrupted (ev : Trace.cursor) =
    let any = ref false in
    for k = 0 to ev.nreads - 1 do
      if read_corrupted k then any := true
    done;
    !any
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
  (* a masking of [kind] on each corrupted read, in read order *)
  let emit index (ev : Trace.cursor) kind =
    for k = 0 to ev.nreads - 1 do
      if read_corrupted k then
        maskings := (masking index ev kind ev.rkeys.(k), -1) :: !maskings
    done
  in
  (* masking detection on reads of corrupted locations: the faulty event
     from the cursor, the clean one's op and reads from the columns *)
  let detect_masking index (ev : Trace.cursor) =
    let outputs_clean = ref (ev.nwrites > 0) in
    for k = 0 to ev.nwrites - 1 do
      (* the step may have numbered a location only the faulty run
         writes *)
      let s = b.wslots.(k) in
      let s = if s >= 0 then s else Align.find w ev.wkeys.(k) in
      if s >= 0 && Align.is_corrupted_slot w s then outputs_clean := false
    done;
    let outputs_clean = !outputs_clean in
    match (ev.op, Trace.op clean index) with
    | Trace.OBr tf, Trace.OBr tc -> if Bool.equal tf tc then emit index ev Cond_mask
    | Trace.OIntr s, _
      when String.length s > 6 && String.starts_with ~prefix:"print:" s ->
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
        if String.equal rendered_f rendered_c then emit index ev Print_mask
    | Trace.OBin op, _ when outputs_clean && Op.bin_is_shift op -> emit index ev Shift_mask
    | Trace.OBin op, _ when outputs_clean && Op.bin_is_compare op ->
        (* a compare with a corrupted operand that still resolves to the
           fault-free boolean: the Conditional Statement pattern at its
           decision site *)
        emit index ev Cond_mask
    | Trace.OUn op, _ when outputs_clean && Op.un_is_truncation op ->
        emit index ev Trunc_mask
    | (Trace.OBin _ | Trace.OUn _ | Trace.OConst | Trace.OLoad
      | Trace.OStore | Trace.OIntr _ | Trace.OCall | Trace.ORet
      | Trace.OJmp | Trace.OMark _ | Trace.OBr _), _ ->
        if outputs_clean then emit index ev Other_mask
  in
  (* corruption status update for the step's [k]th written location *)
  let update_written index (ev : Trace.cursor) k =
    let s = Align.changed_slot w k in
    cover b s;
    if Align.changed_corrupted w k then begin
      let prev = b.cur.(s) and r = new_record b in
      Align.magnitude_to w s b.r_mag r;
      (* repeated-addition check against the magnitude it replaces *)
      (match ev.op with
      | Trace.OStore when prev >= 0 && ev.nreads > 0 ->
          let before = b.r_mag.(prev) and after = b.r_mag.(r) in
          if
            (let s = Align.find w ev.rkeys.(0) in
             s >= 0 && Align.last_write_adds w s)
            && Float.is_finite before && Float.is_finite after
            && after < before
          then
            maskings :=
              ( masking index ev (Repeated_add { before; after })
                  (Align.changed w k),
                prev )
              :: !maskings
      | _ -> ());
      open_record index (Align.changed w k) s r
    end
    else kill index s
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
          if b.ncurrent > 0 || Align.corrupted_count w > 0 then
            for k = 0 to Align.nchanged w - 1 do
              update_written index ev k
            done
      | Align.Diverged _ | Align.End -> ());
  let divergence =
    match Align.finish w with
    | Align.Diverged i -> Some i
    | Align.End | Align.Step -> None
  in
  let result = settle b ~clean ~steps:(Align.pos w) ~divergence !maskings in
  Domain.DLS.set bufs_key (Some b);
  result

let analyze ?fault ~(clean : Trace.t) ~(faulty : Trace.t) () : result =
  analyze_replay ?fault ~clean ~replay:(Trace.replay faulty) ()
