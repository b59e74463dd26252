(** Region-level fault-tolerance classification (Section III-D).

    Given the fault-free and faulty traces and a code-region instance
    (event span from the fault-free run), decide how the region treated
    the corruption:
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
let max_magnitude (w : Align.t) (locs : Loc.t list) : float =
  List.fold_left
    (fun acc loc ->
      match Align.magnitude w loc with
      | None -> acc
      | Some m -> if Float.is_nan m then acc else Float.max acc m)
    0.0 locs

(** Classify one region instance.  [inputs]/[outputs] are the location
    sets from the fault-free DDDG of that instance. *)
let classify ?fault ~(clean : Trace.t) ~(faulty : Trace.t)
    ~(inputs : Loc.t list) ~(outputs : Loc.t list) ~(lo : int) ~(hi : int) ()
    : classification =
  let w = Align.create ?fault ~clean ~faulty () in
  (* advance to region entry *)
  let rec advance_to target =
    if Align.pos w >= target then `Ok
    else
      match Align.step w with
      | Align.Step _ -> advance_to target
      | Align.Diverged _ -> `Diverged
      | Align.End -> `Ended
  in
  match advance_to lo with
  | `Diverged | `Ended -> Diverged
  | `Ok -> (
      (* a region-entry injection triggers exactly at the first event of
         the region; make it visible before sampling the inputs *)
      if lo < Trace.length faulty then
        Align.apply_pending_fault w ~next_seq:(Trace.get faulty lo).Trace.seq;
      let corrupted_inputs =
        List.filter (fun l -> Align.is_corrupted w l) inputs
      in
      if corrupted_inputs = [] then Not_affected
      else
        let entry_mag = max_magnitude w corrupted_inputs in
        match advance_to hi with
        | `Diverged -> Diverged
        | `Ended | `Ok ->
            (* Case 1 asks only that every *output* is clean — the
               corrupted input may live on, masked inside the region *)
            let corrupted_outputs =
              List.filter (fun l -> Align.is_corrupted w l) outputs
            in
            if corrupted_outputs = [] then Case1_masked
            else
              let corrupted_io =
                List.filter (fun l -> Align.is_corrupted w l) (inputs @ outputs)
              in
              let exit_mag = max_magnitude w corrupted_io in
              if exit_mag < entry_mag then
                Case2_diminished { entry_mag; exit_mag }
              else Propagated { entry_mag; exit_mag })

(** Error-magnitude trajectory of one memory word across main-loop
    iterations (Table II of the paper): samples the clean value, the
    faulty value, and Equation-2 magnitude of [addr] at the end of each
    iteration, walking while the runs stay aligned. *)
let magnitude_by_iteration ?fault ~(clean : Trace.t) ~(faulty : Trace.t)
    ~(addr : int) () : (int * Value.t * Value.t * float) list =
  let w = Align.create ?fault ~clean ~faulty () in
  let loc = Loc.Mem addr in
  let samples = ref [] in
  let cur_iter = ref (-1) in
  let sample () =
    if !cur_iter >= 0 then begin
      let cv = Align.clean_value w loc and fv = Align.faulty_value w loc in
      let m = Value.error_magnitude ~correct:cv ~faulty:fv in
      samples := (!cur_iter, cv, fv, m) :: !samples
    end
  in
  let finished = ref false in
  while not !finished do
    match Align.step w with
    | Align.Step { faulty_ev; _ } ->
        if faulty_ev.iter <> !cur_iter then begin
          sample ();
          cur_iter := faulty_ev.iter
        end
    | Align.Diverged _ | Align.End ->
        sample ();
        finished := true
  done;
  List.rev !samples
