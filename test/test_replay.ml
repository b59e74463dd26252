(* Streaming a faulty run = keeping its trace.  [Acl.analyze_replay]
   follows the faulty program's events as it runs instead of storing
   them; on every registry app, and for every kind of fault, it must
   return the result [Acl.analyze] computes from the stored trace.  The
   stored trace's access index checks the deaths independently, and the
   producer must be run exactly once. *)

let budget (clean : Trace.t) = 10 * Trace.length clean

(* the fault the ACL fixture pins for [app] under [label] *)
let fixture_fault (app : string) (label : string) : Machine.fault =
  match
    List.find_opt
      (fun (a, l, _, _) -> String.equal a app && String.equal l label)
      Acl_fixture.rows
  with
  | Some (_, _, f, _) -> Test_acl_fixture.fault_of_string f
  | None -> Alcotest.failf "no %s fault for %s in the fixture" label app

(* One fault of each kind, with the budget it runs under: the fixture's
   write flip, memory flip, crashing and divergent faults; a burst mask
   on the memory flip's word; and the write flip under half the clean
   run's length, which exceeds its budget. *)
let cases (name : string) (clean : Trace.t) =
  let full = budget clean in
  let f = fixture_fault name in
  let mask_mem =
    match f "flip-mem" with
    | Machine.Mem { seq; addr; _ } ->
        Machine.Mem
          { seq; addr;
            corruption =
              { and_mask = -1L; or_mask = 0L;
                xor_mask = Int64.shift_left 0b1011L 44 } }
    | _ -> Alcotest.fail "the fixture's flip-mem fault is not a memory flip"
  in
  [
    ("flip-write", f "flip-write", full);
    ("flip-mem", f "flip-mem", full);
    ("mask-mem", mask_mem, full);
    ("crashing", f "crashing", full);
    ("budget", f "flip-write", Trace.length clean / 2);
    ("divergent", f "divergent", full);
  ]

let check_app (name : string) () =
  let app = Registry.find name in
  let _, clean = App.trace app in
  List.iter
    (fun (label, fault, budget) ->
      let what = Printf.sprintf "%s %s" name label in
      let traced, faulty = App.trace_with_fault app fault ~budget in
      let stored = Acl.analyze ~fault ~clean ~faulty () in
      let replayed, acl = Experiments.replay_acl app ~clean fault ~budget in
      Alcotest.(check bool) (what ^ ": same run result") true
        (replayed.Machine.outcome = traced.Machine.outcome
        && replayed.Machine.instructions = traced.Machine.instructions
        && String.equal replayed.Machine.output traced.Machine.output);
      Alcotest.(check bool) (what ^ ": same ACL result") true
        (compare stored acl = 0);
      (* a dead corrupted location is never touched again by the faulty
         run; an overwrite writes its location in one run or the other *)
      let access = Access.build faulty in
      let writes (t : Trace.t) (d : Acl.death) =
        d.Acl.d_index < Trace.length t
        && Array.exists
             (fun (l, _) -> Loc.equal l d.Acl.d_loc)
             (Trace.get t d.Acl.d_index).Trace.writes
      in
      List.iter
        (fun (d : Acl.death) ->
          let ok =
            match d.Acl.d_cause with
            | Acl.Dead ->
                Array.for_all
                  (fun (i, _) -> i < d.Acl.d_index)
                  (Access.accesses access d.Acl.d_loc)
            | Acl.Overwritten -> writes clean d || writes faulty d
          in
          if not ok then
            Alcotest.failf "%s: %s death of %s at %d" what
              (match d.Acl.d_cause with
              | Acl.Dead -> "dead"
              | Acl.Overwritten -> "overwrite")
              (Fmt.to_to_string Loc.pp d.Acl.d_loc)
              d.Acl.d_index)
        stored.Acl.deaths;
      (* each case exercises the kind it is named for *)
      let kind_ok =
        match (label, traced.Machine.outcome) with
        | "crashing", Machine.Trapped _ -> true
        | "crashing", _ -> false
        | "budget", o -> o = Machine.Budget_exceeded
        | "divergent", _ -> stored.Acl.divergence <> None
        | _, _ -> stored.Acl.peak > 0 || stored.Acl.deaths <> []
      in
      Alcotest.(check bool) (what ^ ": exercises its kind") true kind_ok)
    (cases name clean)

(* the producer runs once and is followed to its end, past the
   divergence; [replay_acl] returns that run's result with its table *)
let test_one_run () =
  let app = Registry.find "CG" in
  let _, clean = App.trace app in
  let fault = fixture_fault "CG" "divergent" in
  let budget = budget clean in
  let traced, faulty = App.trace_with_fault app fault ~budget in
  let calls = ref 0 and events = ref 0 in
  let replay f =
    incr calls;
    ignore
      (App.replay_with_fault app fault ~budget (fun e ->
           incr events;
           f e))
  in
  let acl = Acl.analyze_replay ~fault ~clean ~replay () in
  Alcotest.(check int) "one run" 1 !calls;
  Alcotest.(check int) "followed to the end" (Trace.length faulty) !events;
  Alcotest.(check bool) "diverged before the end" true
    (match acl.Acl.divergence with Some d -> d < !events | None -> false);
  let result, acl' = Experiments.replay_acl app ~clean fault ~budget in
  Alcotest.(check bool) "replay_acl: the run's result" true
    (result.Machine.outcome = traced.Machine.outcome
    && result.Machine.instructions = traced.Machine.instructions
    && String.equal result.Machine.output traced.Machine.output);
  Alcotest.(check bool) "replay_acl: the same table" true (compare acl acl' = 0)

let suite =
  ( "acl replay",
    Alcotest.test_case "one run, followed past divergence" `Quick
      test_one_run
    :: List.map
         (fun (app : App.t) ->
           Alcotest.test_case ("replay = stored: " ^ app.App.name) `Slow
             (check_app app.App.name))
         Registry.all )
