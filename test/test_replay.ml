(* Replaying a faulty run = keeping its trace.  [Acl.analyze_replay]
   runs the faulty program twice instead of storing its events; on
   every registry app, and for every kind of fault, it must return the
   result [Acl.analyze] computes from the stored trace.  The replay
   contracts are checked too: the second run stops right after the
   divergence, and a producer whose second run differs in length from
   its first is refused. *)

open Helpers

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
    | Machine.Flip_mem { seq; addr; _ } ->
        Machine.Mask_mem
          { seq; addr; and_mask = -1L; or_mask = 0L;
            xor_mask = Int64.shift_left 0b1011L 44 }
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

(* the second run delivers events up to the divergence index and one
   more at most; the first runs to the end *)
let test_stops_at_divergence () =
  let app = Registry.find "CG" in
  let _, clean = App.trace app in
  let fault = fixture_fault "CG" "divergent" in
  let budget = budget clean in
  let _, faulty = App.trace_with_fault app fault ~budget in
  let counts = ref [] in
  let replay f =
    let n = ref 0 in
    counts := n :: !counts;
    ignore
      (App.replay_with_fault app fault ~budget (fun e ->
           incr n;
           f e))
  in
  let acl = Acl.analyze_replay ~fault ~clean ~replay () in
  match (acl.Acl.divergence, List.rev_map ( ! ) !counts) with
  | Some d, [ first; second ] ->
      Alcotest.(check int) "first run is complete" (Trace.length faulty) first;
      Alcotest.(check bool)
        (Printf.sprintf "second run stops at %d (divergence %d)" second d)
        true
        (d <= second && second <= d + 1);
      Alcotest.(check bool) "stopped well before the end" true
        (second < first)
  | None, _ -> Alcotest.fail "the divergent fault did not diverge"
  | Some _, l -> Alcotest.failf "%d replays, expected 2" (List.length l)

(* a producer whose second run is longer or shorter than its first is
   refused, not analyzed against the first run's index *)
let test_refuses_changed_second_run () =
  let prog = compile (loop_program ~iters:4) in
  let _, clean = run_traced prog in
  let n = Trace.length clean in
  let refused what ~first ~second =
    let calls = ref 0 in
    let replay f =
      incr calls;
      for i = 0 to (if !calls = 1 then first else second) - 1 do
        f (Trace.get clean i)
      done
    in
    match Acl.analyze_replay ~clean ~replay () with
    | _ -> Alcotest.failf "%s: analyzed" what
    | exception Invalid_argument _ -> ()
  in
  refused "longer second run" ~first:(n / 2) ~second:n;
  refused "shorter second run" ~first:n ~second:(n / 2);
  (* the same events twice are accepted *)
  let calls = ref 0 in
  let replay f =
    incr calls;
    Trace.iter f clean
  in
  let r = Acl.analyze_replay ~clean ~replay () in
  Alcotest.(check int) "two runs" 2 !calls;
  Alcotest.(check bool) "fault-free: no corruption" true
    (r.Acl.peak = 0 && r.Acl.divergence = None)

let suite =
  ( "acl replay",
    Alcotest.test_case "second run stops at divergence" `Quick
      test_stops_at_divergence
    :: Alcotest.test_case "changed second run refused" `Quick
         test_refuses_changed_second_run
    :: List.map
         (fun (app : App.t) ->
           Alcotest.test_case ("replay = stored: " ^ app.App.name) `Slow
             (check_app app.App.name))
         Registry.all )
