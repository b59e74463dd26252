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

(* Status of a corrupted location in the ACL bookkeeping: liveness,
   scheduled death index, and error magnitude as of its latest
   corrupting write. *)
type status = { mutable alive : bool; mutable sched : int; mutable mag : float }

(* the empty slot of the status store, compared physically *)
let no_status = { alive = false; sched = -1; mag = 0.0 }

(* death schedule keyed by event index; indices hash to themselves *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

let mask_kind_to_string = function
  | Shift_mask -> "shift"
  | Trunc_mask -> "truncation"
  | Cond_mask -> "conditional"
  | Print_mask -> "print-truncation"
  | Repeated_add _ -> "repeated-addition"
  | Other_mask -> "other"

(* raised out of a replay to stop it once alignment has diverged or
   ended, carrying the divergence index *)
exception Stop of int option

(* Feed the events [replay] pushes to [w], passing every aligned step
   to [f], and stop the replay as soon as alignment diverges or ends.
   Returns the divergence index, if any. *)
let drive (w : Align.t) (replay : (Trace.event -> unit) -> unit)
    (f : Align.step -> unit) : int option =
  let push = function
    | Align.Step _ as s -> f s
    | Align.Diverged i -> raise_notrace (Stop (Some i))
    | Align.End -> raise_notrace (Stop None)
  in
  try
    replay (fun ev -> push (Align.feed w ev));
    push (Align.finish w);
    None
  with Stop d -> d

(* The ACL walk over the faulty events [replay] pushes, parameterized
   over the liveness oracle: [fate loc ~after:idx] answers what happens
   to the value in [loc] established at event [idx] of the faulty run.
   The replay path backs it with a random-access index
   ({!Access.fate}); the streaming path with a pre-resolved answer
   table. *)
let walk (w : Align.t) (replay : (Trace.event -> unit) -> unit)
    (fate : Loc.t -> after:int -> Access.fate) : result =
  let statuses : status Loc_store.t = Loc_store.create no_status in
  let nstatuses = ref 0 in
  let scheduled : (Loc.t * bool) list Itbl.t = Itbl.create 64 in
  let count = ref 0 in
  let peak = ref 0 in
  let series = ref [] in
  let deaths = ref [] in
  let maskings = ref [] in
  let record_count seq =
    (match !series with
    | (_, c) :: _ when c = !count -> ()
    | _ ->
        series := (seq, !count) :: !series;
        if !count > !peak then peak := !count)
  in
  let schedule idx loc ~has_write =
    Itbl.replace scheduled idx
      ((loc, has_write) :: (try Itbl.find scheduled idx with Not_found -> []))
  in
  let make_alive idx loc ~mag =
    (* the location is corrupted as of event [idx]; decide liveness *)
    let st =
      match Loc_store.get statuses loc with
      | st when st != no_status ->
          st.mag <- mag;
          st
      | _ ->
          let st = { alive = false; sched = -1; mag } in
          Loc_store.set statuses loc st;
          incr nstatuses;
          st
    in
    match fate loc ~after:idx with
    | `Dies_after_read (r, next_write) ->
        if not st.alive then begin
          st.alive <- true;
          incr count
        end;
        st.sched <- r + 1;
        schedule (r + 1) loc ~has_write:(next_write <> None)
    | `Overwritten_at _ ->
        (* not referenced before the next write: corrupted but never
           alive; the overwrite event will decide its death cause *)
        if st.alive then begin
          st.alive <- false;
          decr count
        end;
        st.sched <- -1
    | `Never_used ->
        if st.alive then begin
          st.alive <- false;
          decr count
        end;
        st.sched <- -1
  in
  let kill idx loc ~cause ~(ev : Trace.event) =
    match Loc_store.get statuses loc with
    | st when st == no_status -> ()
    | st ->
        if st.alive then begin
          st.alive <- false;
          decr count
        end;
        Loc_store.set statuses loc no_status;
        decr nstatuses;
        let fed =
          (* it was read while corrupted iff its fate from its corruption
             point included a read; approximated by: it was alive at some
             point (scheduled) *)
          st.sched >= 0
        in
        deaths :=
          {
            d_index = idx;
            d_loc = loc;
            d_cause = cause;
            d_fed_forward = fed;
            d_line = ev.line;
            d_region = ev.region;
          }
          :: !deaths
  in
  (* 1. scheduled deaths: locations whose last read has passed *)
  let scheduled_deaths index (faulty_ev : Trace.event) =
    match Itbl.find_opt scheduled index with
    | None -> ()
    | Some locs ->
        Itbl.remove scheduled index;
        List.iter
          (fun (loc, has_write) ->
            match Loc_store.get statuses loc with
            | st when st.alive && st.sched = index ->
                if Align.is_corrupted w loc then
                  if has_write then begin
                    (* the value's last use has passed but a write
                       follows: it stops being alive now, and the
                       overwrite event decides the death cause *)
                    st.alive <- false;
                    decr count
                  end
                  else kill index loc ~cause:Dead ~ev:faulty_ev
            | _ -> ())
          locs
  in
  let is_corrupted_status loc =
    Loc_store.get statuses loc != no_status && Align.is_corrupted w loc
  in
  let read_corrupted (loc, _) = is_corrupted_status loc in
  (* 2. masking detection on reads of corrupted locations *)
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
        {
          m_index = index;
          m_loc = loc;
          m_kind = kind;
          m_line = faulty_ev.line;
          m_region = faulty_ev.region;
          m_instance = faulty_ev.instance;
        }
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
  (* 3. corruption status update for one written location *)
  let update_written index (faulty_ev : Trace.event) loc =
    let st = Loc_store.get statuses loc in
    let was = st != no_status in
    if Align.is_corrupted w loc then begin
      (* repeated-addition check before refreshing the magnitude *)
      let new_mag =
        match Align.magnitude w loc with Some m -> m | None -> 0.0
      in
      (match faulty_ev.op with
      | Trace.OStore when was && Array.length faulty_ev.reads > 0 ->
          let old_mag = st.mag in
          let is_add =
            match Align.last_writer w (fst faulty_ev.reads.(0)) with
            | Some (Trace.OBin (Op.Fadd | Op.Fsub)) -> true
            | Some _ | None -> false
          in
          if
            is_add && Float.is_finite old_mag && Float.is_finite new_mag
            && new_mag < old_mag
          then
            maskings :=
              {
                m_index = index;
                m_loc = loc;
                m_kind = Repeated_add { before = old_mag; after = new_mag };
                m_line = faulty_ev.line;
                m_region = faulty_ev.region;
                m_instance = faulty_ev.instance;
              }
              :: !maskings
      | _ -> ());
      make_alive index loc ~mag:new_mag
    end
    else if was then kill index loc ~cause:Overwritten ~ev:faulty_ev
  in
  let rec update_all index faulty_ev = function
    | [] -> ()
    | loc :: rest ->
        update_written index faulty_ev loc;
        update_all index faulty_ev rest
  in
  let divergence =
    drive w replay (function
      | Align.Step { index; clean_ev; faulty_ev; changed } ->
          if Itbl.length scheduled > 0 then scheduled_deaths index faulty_ev;
          (* reads matter only while some location is corrupted *)
          if !nstatuses > 0 && Array.exists read_corrupted faulty_ev.reads then
            detect_masking index clean_ev faulty_ev;
          update_all index faulty_ev changed;
          record_count faulty_ev.seq
      | Align.Diverged _ | Align.End -> ())
  in
  {
    series = Array.of_list (List.rev !series);
    deaths = List.rev !deaths;
    maskings = List.rev !maskings;
    divergence;
    peak = !peak;
    final = !count;
  }

(** The ACL table of a faulty run that [replay] can run again: the
    first run builds the faulty run's access index, the second feeds
    the walk and is stopped once alignment diverges or ends.  Neither
    keeps the faulty trace.  A deterministic producer (the VM is one)
    delivers the same events both times; a second run that delivers
    more or fewer events than the first is refused rather than
    analyzed against the wrong index. *)
let analyze_replay ?fault ~(clean : Trace.t)
    ~(replay : (Trace.event -> unit) -> unit) () : result =
  let access = Access.index replay in
  let n = Access.events access in
  let mismatch () =
    invalid_arg "Acl.analyze_replay: the second run differs in length from the first"
  in
  let again f =
    let i = ref 0 in
    replay (fun ev ->
        if !i >= n then mismatch ();
        incr i;
        f ev);
    if !i < n then mismatch ()
  in
  walk (Align.create ?fault ~clean ()) again (fun loc ~after ->
      Access.fate access loc ~after)

let analyze ?fault ~(clean : Trace.t) ~(faulty : Trace.t) () : result =
  analyze_replay ?fault ~clean ~replay:(fun f -> Trace.iter f faulty) ()

(* --- streaming (constant-memory) path ----------------------------------- *)

(* Per-location state of the single-pass fate resolver (pass 2):
   [pending] holds the query event indices collected in pass 1, sorted
   ascending; [next] is the first not-yet-activated one; [active] are
   queries whose index has passed and whose fate is still undecided,
   paired with the last read seen so far (-1 = none).  A write resolves
   every active query, so [active] stays tiny (one entry in practice:
   a new query is only created by a later corrupting write, which first
   resolves its predecessor). *)
type fate_state = {
  pending : int array;
  mutable next : int;
  mutable active : (int * int ref) list;
}

(** [analyze] over restartable event sources, never materializing a
    trace.  Three passes: (1) an alignment walk collects the (event
    index, location) liveness queries the ACL walk will ask; (2) one
    forward scan of the faulty stream resolves every query exactly as
    {!Access.fate} would; (3) the ACL walk runs against the answer
    table.  Peak memory is proportional to distinct written locations
    plus corruption events — independent of the trace length.  The
    result is identical to [analyze] by construction. *)
let analyze_stream ?fault ~(clean : Trace_io.source)
    ~(faulty : Trace_io.source) () : result =
  (* pass 1: which (idx, loc) fates will the ACL walk ask for? *)
  let queries : int list ref Loc.Tbl.t = Loc.Tbl.create 64 in
  let replay_faulty f = faulty.Trace_io.run (Seq.iter f) in
  clean.Trace_io.run (fun clean_seq ->
      let w = Align.create_seq ?fault ~clean:clean_seq () in
      ignore
        (drive w replay_faulty (function
          | Align.Step { index; changed; _ } ->
              List.iter
                (fun loc ->
                  if Align.is_corrupted w loc then
                    match Loc.Tbl.find_opt queries loc with
                    | Some l -> l := index :: !l
                    | None -> Loc.Tbl.add queries loc (ref [ index ]))
                changed
          | Align.Diverged _ | Align.End -> ())));
  (* pass 2: resolve every query in one forward scan of the faulty
     stream, replicating Access.fate's strictly-after, reads-before-
     writes-within-an-event semantics *)
  let states : fate_state Loc.Tbl.t = Loc.Tbl.create (Loc.Tbl.length queries) in
  Loc.Tbl.iter
    (fun loc l ->
      Loc.Tbl.add states loc
        { pending = Array.of_list (List.rev !l); next = 0; active = [] })
    queries;
  let answers : (int * Loc.t, Access.fate) Hashtbl.t = Hashtbl.create 256 in
  let activate (st : fate_state) (i : int) =
    while
      st.next < Array.length st.pending && st.pending.(st.next) < i
    do
      st.active <- (st.pending.(st.next), ref (-1)) :: st.active;
      st.next <- st.next + 1
    done
  in
  faulty.Trace_io.run (fun faulty_seq ->
      let i = ref 0 in
      Seq.iter
        (fun (e : Trace.event) ->
          Array.iter
            (fun (loc, _) ->
              match Loc.Tbl.find_opt states loc with
              | None -> ()
              | Some st ->
                  activate st !i;
                  List.iter (fun (_, last_read) -> last_read := !i) st.active)
            e.reads;
          Array.iter
            (fun (loc, _) ->
              match Loc.Tbl.find_opt states loc with
              | None -> ()
              | Some st ->
                  activate st !i;
                  List.iter
                    (fun (q, last_read) ->
                      Hashtbl.replace answers (q, loc)
                        (if !last_read >= 0 then
                           `Dies_after_read (!last_read, Some !i)
                         else `Overwritten_at !i))
                    st.active;
                  st.active <- [])
            e.writes;
          incr i)
        faulty_seq);
  (* end of stream: still-active queries die with their last read (or
     were never referenced); never-activated ones saw no later access *)
  Loc.Tbl.iter
    (fun loc st ->
      List.iter
        (fun (q, last_read) ->
          Hashtbl.replace answers (q, loc)
            (if !last_read >= 0 then `Dies_after_read (!last_read, None)
             else `Never_used))
        st.active;
      for k = st.next to Array.length st.pending - 1 do
        Hashtbl.replace answers (st.pending.(k), loc) `Never_used
      done)
    states;
  (* pass 3: the ACL walk proper, fed by the answer table *)
  let fate loc ~after =
    match Hashtbl.find_opt answers (after, loc) with
    | Some f -> f
    | None ->
        (* pass 1 and pass 3 walk identical streams, so every query is
           pre-answered; a miss means the source is not restartable *)
        invalid_arg "Acl.analyze_stream: non-restartable event source"
  in
  clean.Trace_io.run (fun clean_seq ->
      walk (Align.create_seq ?fault ~clean:clean_seq ()) replay_faulty fate)
