(** Region-level fault-tolerance classification (Section III-D of the
    paper): given the fault-free trace, a replay producer of the faulty
    run and a region instance, decide whether the region masked the
    corruption (Case 1), diminished its magnitude (Case 2), propagated
    it, was unaffected, or diverged. *)

type classification =
  | Case1_masked
      (** some input was corrupted at entry, every output clean at exit *)
  | Case2_diminished of { entry_mag : float; exit_mag : float }
      (** corruption survives with smaller error magnitude *)
  | Propagated of { entry_mag : float; exit_mag : float }
  | Not_affected  (** no input corrupted: propagation analysis skips it *)
  | Diverged

val to_string : classification -> string

val classify :
  ?fault:Machine.fault ->
  clean:Trace.t ->
  replay:((Trace.cursor -> unit) -> unit) ->
  inputs:Loc.t list ->
  outputs:Loc.t list ->
  lo:int ->
  hi:int ->
  unit ->
  classification
(** [inputs]/[outputs] come from the fault-free DDDG of the instance;
    [lo]/[hi] is its event span.  [replay] is a producer of the faulty
    run, as for {!Acl.analyze_replay}.  It is called once and, unlike
    there, stopped by an exception from its callback as soon as the
    classification is known, so it must let that exception through.
    [fault] as for {!Acl.analyze_replay}. *)

val magnitude_by_iteration :
  ?fault:Machine.fault ->
  clean:Trace.t ->
  replay:((Trace.cursor -> unit) -> unit) ->
  addr:int ->
  unit ->
  (int * Value.t * Value.t * float) list
(** Error-magnitude trajectory of one memory word at each main-loop
    iteration boundary — the Table II experiment.  Each sample is
    [(iteration, clean_value, faulty_value, magnitude)].  [replay] as
    for [classify]; it is stopped once the runs diverge or end. *)
