(* Cross-module integration and failure-path coverage. *)

open Helpers

(* a fault that crashes the run mid-way: the faulty trace is a strict
   prefix, and alignment reports divergence rather than raising *)
let test_align_with_crashing_fault () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("a", Ty.F64, [ 4 ]); DScalar ("s", Ty.F64) ]
         [
           SFor ("j", i 0, i 4, [ SStore ("a", [ v "j" ], f 1.0) ]);
           SAssign ("s", idx1 "a" (i 2));
           SPrint ("RESULT %g\n", [ v "s" ]);
         ])
  in
  let _, clean = run_traced prog in
  (* find an address-computation write (the Add feeding a store) and
     blast its high bit: guaranteed wild store *)
  let seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      if !seq < 0 && e.op = Trace.OBin Op.Add then seq := e.seq)
    clean;
  let fault = flip_write ~seq:!seq 62 in
  let r, faulty = run_traced ~fault prog in
  (match r.Machine.outcome with
  | Machine.Trapped _ -> ()
  | Machine.Finished | Machine.Budget_exceeded ->
      Alcotest.fail "expected the wild store to trap");
  Alcotest.(check bool) "faulty trace shorter" true
    (Trace.length faulty < Trace.length clean);
  let acl = Acl.analyze ~fault ~clean ~faulty () in
  Alcotest.(check bool) "prefix analyzed, divergence reported" true
    (acl.Acl.divergence <> None)

let test_acl_reports_control_divergence_position () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("r", Ty.I64) ]
         [
           SAssign ("x", i 1);
           SIf (v "x" > i 0, [ SAssign ("r", i 1) ], [ SAssign ("r", i 2) ]);
         ])
  in
  let _, clean = run_traced prog in
  (* flip the sign bit of x: the branch flips *)
  let seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      if !seq < 0 && e.op = Trace.OStore then seq := e.seq)
    clean;
  let fault = flip_write ~seq:!seq 63 in
  let _, faulty = run_traced ~fault prog in
  let acl = Acl.analyze ~fault ~clean ~faulty () in
  match acl.Acl.divergence with
  | Some i -> Alcotest.(check bool) "after the fault" true (i > !seq)
  | None -> Alcotest.fail "expected control divergence"

let test_campaign_deterministic () =
  let app = Is.app in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let cfg = { Campaign.default_config with max_trials = Some 25 } in
  let run () =
    Campaign.run prog ~verify:(App.verify app)
      ~clean_instructions:clean.Machine.instructions ~cfg
      (Campaign.whole_program_target prog trace)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same successes" a.Campaign.success b.Campaign.success;
  Alcotest.(check int) "same crashes" a.Campaign.crashed b.Campaign.crashed

let test_budget_boundary () =
  let prog = compile (loop_program ~iters:1) in
  let full = Machine.run_plain prog in
  (* exactly enough budget: finishes; one less: hang *)
  let just_enough =
    run ~budget:full.Machine.instructions prog
  in
  Alcotest.(check bool) "exact budget finishes" true
    (just_enough.Machine.outcome = Machine.Finished);
  let one_short = run ~budget:(full.Machine.instructions - 1) prog in
  Alcotest.(check bool) "one short hangs" true
    (one_short.Machine.outcome = Machine.Budget_exceeded)

(* classify an MG region input injection end to end through the
   tolerance machinery *)
let test_mg_region_tolerance_classification () =
  let app = Mg.app in
  let _, clean = App.trace app in
  let prog = App.program app in
  let access = Access.build clean in
  let rid = (Prog.region_by_name prog "mg_d").Prog.rid in
  match Region.find_instance clean ~rid ~number:0 with
  | None -> Alcotest.fail "mg_d instance"
  | Some inst ->
      let g = Dddg.build clean access ~lo:inst.Region.lo ~hi:inst.Region.hi in
      let inputs = List.map (fun a -> Loc.Mem a) (Dddg.input_mem_addrs g) in
      let outputs = List.map (fun a -> Loc.Mem a) (Dddg.output_mem_addrs g) in
      Alcotest.(check bool) "inputs found" true (inputs <> []);
      let entry_seq = (Trace.get clean inst.Region.lo).Trace.seq in
      let addr =
        match List.hd inputs with Loc.Mem a -> a | Loc.Reg _ -> assert false
      in
      let fault = flip_mem ~seq:entry_seq ~addr 44 in
      let replay f =
        ignore (App.replay_with_fault app fault ~budget:10_000_000 f)
      in
      let c =
        Tolerance.classify ~fault ~clean ~replay ~inputs ~outputs
          ~lo:inst.Region.lo ~hi:inst.Region.hi ()
      in
      (* any classification is acceptable; Not_affected is not, since we
         corrupted an input directly *)
      Alcotest.(check bool)
        (Printf.sprintf "classified (%s)" (Tolerance.to_string c))
        true
        (match c with
        | Tolerance.Not_affected -> false
        | Tolerance.Case1_masked | Tolerance.Case2_diminished _
        | Tolerance.Propagated _ | Tolerance.Diverged ->
            true)

let test_registry_names_unique () =
  (* cg_variants deliberately repeats the CG baseline, so dedup the
     union before checking: every remaining name must be unique *)
  let names =
    List.map (fun (a : App.t) -> a.App.name) (Registry.all @ Registry.cg_variants)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all + 3 hardened variants"
    (List.length Registry.all + 3)
    (List.length names);
  List.iter
    (fun (a : App.t) ->
      Alcotest.(check bool) "analyzed is a subset of all" true
        (List.exists (fun (b : App.t) -> String.equal a.App.name b.App.name)
           Registry.all))
    Registry.analyzed

(* the facade round trip on a masked fault *)
let test_facade_masked_fault_verifies () =
  (* flip a dead temporary in IS setup: must verify *)
  let app = Is.app in
  let _, trace = App.trace app in
  (* take the very first Const write (setup), bit 0: usually masked or
     overwritten; we only require a classified, printable report *)
  let e = Trace.get trace 0 in
  let report =
    Fliptracker.inject_and_analyze app
      (flip_write ~seq:e.Trace.seq 0)
  in
  Alcotest.(check bool) "printable" true
    (String.length (Fmt.str "%a" Fliptracker.pp_injection_report report) > 10)

let suite =
  ( "integration",
    [
      Alcotest.test_case "align with crashing fault" `Quick
        test_align_with_crashing_fault;
      Alcotest.test_case "acl divergence position" `Quick
        test_acl_reports_control_divergence_position;
      Alcotest.test_case "campaign deterministic" `Slow test_campaign_deterministic;
      Alcotest.test_case "budget boundary" `Quick test_budget_boundary;
      Alcotest.test_case "mg region tolerance" `Slow
        test_mg_region_tolerance_classification;
      Alcotest.test_case "registry names" `Quick test_registry_names_unique;
      Alcotest.test_case "facade masked fault" `Slow test_facade_masked_fault_verifies;
    ] )
