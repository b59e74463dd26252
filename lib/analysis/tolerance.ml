(** Region-level fault-tolerance classification (Section III-D).

    Given the fault-free trace, a replay producer of the faulty run and
    a code-region instance (event span from the fault-free run), decide
    how the region treated the corruption:
    {ul
    {- [Case1_masked]: at least one input location was corrupted at
       region entry, and every output location was clean at region exit
       — the region absorbed the error;}
    {- [Case2_diminished]: corruption survives, but the largest error
       magnitude over the corrupted input/output locations shrank
       across the region;}
    {- [Propagated]: corruption survives undiminished;}
    {- [Not_affected]: no input was corrupted (propagation analysis can
       skip the region);}
    {- [Diverged]: control flow changed inside the region, so
       input/output comparison is not meaningful.}} *)

type classification =
  | Case1_masked
  | Case2_diminished of { entry_mag : float; exit_mag : float }
  | Propagated of { entry_mag : float; exit_mag : float }
  | Not_affected
  | Diverged

let to_string = function
  | Case1_masked -> "case1-masked"
  | Case2_diminished { entry_mag; exit_mag } ->
      Printf.sprintf "case2-diminished (%.3e -> %.3e)" entry_mag exit_mag
  | Propagated { entry_mag; exit_mag } ->
      Printf.sprintf "propagated (%.3e -> %.3e)" entry_mag exit_mag
  | Not_affected -> "not-affected"
  | Diverged -> "diverged"

(* largest finite error magnitude over [locs]; infinite magnitudes
   (corruption of a zero value) are treated as larger than any finite
   one *)
let max_magnitude (w : Align.t) (locs : int list) : float =
  List.fold_left
    (fun acc loc ->
      match Align.magnitude w loc with
      | None -> acc
      | Some m -> if Float.is_nan m then acc else Float.max acc m)
    0.0 locs

(** Classify one region instance of the faulty run [replay] produces.
    [inputs]/[outputs] are the location sets from the fault-free DDDG of
    that instance, [lo]/[hi] its event span.  The replay is stopped as
    soon as the classification is known. *)
let classify ?fault ~(clean : Trace.t)
    ~(replay : (Trace.cursor -> unit) -> unit) ~(inputs : Loc.t list)
    ~(outputs : Loc.t list) ~(lo : int) ~(hi : int) () : classification =
  let w = Align.create ?fault ~clean () in
  let inputs = List.map Loc.key inputs and outputs = List.map Loc.key outputs in
  let corrupted locs = List.filter (Align.is_corrupted w) locs in
  let exception Classified of classification in
  (* the largest input magnitude at region entry, once it is reached *)
  let entry_mag = ref None in
  let enter () =
    match corrupted inputs with
    | [] -> raise_notrace (Classified Not_affected)
    | ins ->
        let m = max_magnitude w ins in
        entry_mag := Some m;
        m
  in
  let exit_class m =
    (* Case 1 asks only that every *output* is clean — the corrupted
       input may live on, masked inside the region *)
    if corrupted outputs = [] then Case1_masked
    else
      let exit_mag = max_magnitude w (corrupted (inputs @ outputs)) in
      if exit_mag < m then Case2_diminished { entry_mag = m; exit_mag }
      else Propagated { entry_mag = m; exit_mag }
  in
  let check_exit () =
    match !entry_mag with
    | Some m when Align.pos w >= hi -> raise_notrace (Classified (exit_class m))
    | Some _ | None -> ()
  in
  let sink f (ev : Trace.cursor) =
    if Option.is_none !entry_mag && Align.pos w = lo then begin
      (* a region-entry injection triggers exactly at the first event of
         the region; make it visible before sampling the inputs *)
      Align.apply_pending_fault w ~next_seq:ev.seq;
      ignore (enter ());
      check_exit ()
    end;
    f ev
  in
  try
    let divergence =
      Align.drive w (fun f -> replay (sink f)) (fun _ -> check_exit ())
    in
    if Align.pos w < lo then Diverged
    else
      (* the faulty run ended at region entry, or inside the region *)
      let m = match !entry_mag with Some m -> m | None -> enter () in
      if divergence = None || Align.pos w >= hi then exit_class m else Diverged
  with Classified c -> c

(** Error-magnitude trajectory of one memory word across main-loop
    iterations (Table II of the paper): samples the clean value, the
    faulty value, and Equation-2 magnitude of [addr] at the end of each
    iteration of the faulty run [replay] produces, while the runs stay
    aligned. *)
let magnitude_by_iteration ?fault ~(clean : Trace.t)
    ~(replay : (Trace.cursor -> unit) -> unit) ~(addr : int) () :
    (int * Value.t * Value.t * float) list =
  let w = Align.create ?fault ~clean () in
  let loc = Loc.mem_key addr in
  let samples = ref [] in
  let cur_iter = ref (-1) in
  let sample () =
    if !cur_iter >= 0 then begin
      let cv = Align.clean_value w loc and fv = Align.faulty_value w loc in
      let m = Value.error_magnitude ~correct:cv ~faulty:fv in
      samples := (!cur_iter, cv, fv, m) :: !samples
    end
  in
  ignore
    (Align.drive w replay (fun (ev : Trace.cursor) ->
         if ev.iter <> !cur_iter then begin
           sample ();
           cur_iter := ev.iter
         end));
  sample ();
  List.rev !samples
