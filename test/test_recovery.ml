(* The recovery subsystem: fault models, checkpoint/rollback, the
   Recovered outcome class, and the paired Recovery_eval report. *)

(* --- fault models -------------------------------------------------------- *)

let test_model_of_string_round_trips () =
  List.iter
    (fun name ->
      match Fault_model.of_string name with
      | Ok m ->
          Alcotest.(check string) "round trip" name (Fault_model.to_string m)
      | Error e -> Alcotest.failf "%s did not parse: %s" name e)
    Fault_model.names;
  (match Fault_model.of_string "burst-16" with
  | Ok (Fault_model.Burst 16) -> ()
  | _ -> Alcotest.fail "burst-16 should parse");
  List.iter
    (fun bad ->
      match Fault_model.of_string bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "burst-1"; "burst-65"; "burst-"; "tripple"; "" ]

let test_model_sampling_is_deterministic () =
  let prog = Helpers.compile (Helpers.two_region_program ()) in
  let _, trace = Helpers.run_traced prog in
  let target = Campaign.whole_program_target prog trace in
  List.iter
    (fun model ->
      let f1 = Campaign.sample_fault ~model (Rng.derive ~seed:7 ~index:3) target in
      let f2 = Campaign.sample_fault ~model (Rng.derive ~seed:7 ~index:3) target in
      Alcotest.(check string)
        (Fault_model.to_string model ^ " deterministic")
        (Machine.fault_to_string f1) (Machine.fault_to_string f2))
    [
      Fault_model.Single_bit; Fault_model.Double_adjacent;
      Fault_model.Burst 8; Fault_model.Stuck_at;
    ]

let test_single_bit_sampling_matches_historical () =
  (* the default model must consume the RNG exactly as the historical
     code did: one site draw, one bit draw, a write fault whose mask is
     one xor bit *)
  let prog = Helpers.compile (Helpers.two_region_program ()) in
  let _, trace = Helpers.run_traced prog in
  let target = Campaign.whole_program_target prog trace in
  let rng = Rng.derive ~seed:11 ~index:0 in
  let fault = Campaign.sample_fault rng target in
  (match fault with
  | Machine.Write { corruption; _ }
    when Machine.flipped_bit corruption <> None ->
      ()
  | f ->
      Alcotest.failf
        "single-bit sampled %s, not a write fault whose mask is one xor bit"
        (Machine.fault_to_string f));
  (* site selection is shared across models: the same stream picks the
     same dynamic site under every model *)
  let seq_of = function
    | Machine.Write { seq; _ } -> seq
    | f -> Alcotest.failf "unexpected fault %s" (Machine.fault_to_string f)
  in
  let base = seq_of (Campaign.sample_fault (Rng.derive ~seed:11 ~index:5) target) in
  List.iter
    (fun model ->
      Alcotest.(check int)
        (Fault_model.to_string model ^ " picks the same site")
        base
        (seq_of (Campaign.sample_fault ~model (Rng.derive ~seed:11 ~index:5) target)))
    [ Fault_model.Double_adjacent; Fault_model.Burst 4; Fault_model.Stuck_at ]

(* --- checkpoint/rollback -------------------------------------------------- *)

(* rollback must restore registers, memory, and the output buffer
   bit-exactly: a trapping fault recovered by rollback ends in exactly
   the clean run's final state, because the monotonic instruction
   counter guarantees the injected fault never re-fires on replay *)
let test_rollback_restores_state_bit_exactly () =
  let app = Option.get (Registry.find_opt "LULESH") in
  let prog = App.program app in
  let clean = Machine.run_plain prog in
  Helpers.check_finished clean;
  let _, trace = App.trace app in
  let target = Campaign.whole_program_target prog trace in
  let budget = 20 * clean.Machine.instructions in
  (* property over sampled faults: every fault that traps without
     recovery finishes bit-exactly under rollback *)
  let recovered = ref 0 in
  let index = ref 0 in
  while !recovered < 5 && !index < 200 do
    let fault = Campaign.sample_fault (Rng.derive ~seed:9 ~index:!index) target in
    incr index;
    let bare =
      Machine.run prog
        { Machine.default_config with fault = Some fault; budget }
    in
    match bare.Machine.outcome with
    | Machine.Trapped _ ->
        let armed =
          Machine.run prog
            {
              Machine.default_config with
              fault = Some fault;
              budget;
              recover = Some Machine.default_recover;
            }
        in
        (match armed.Machine.outcome with
        | Machine.Finished ->
            incr recovered;
            Alcotest.(check bool) "took at least one restore" true
              (armed.Machine.restores > 0);
            Alcotest.(check string) "output bit-exact" clean.Machine.output
              armed.Machine.output;
            Alcotest.(check bool) "memory bit-exact" true
              (Machine.mem_equal armed.Machine.mem clean.Machine.mem)
        | Machine.Trapped _ | Machine.Budget_exceeded ->
            (* a trap can outrun the snapshot budget; that is a legal
               outcome, just not one this property speaks about *)
            ())
    | Machine.Finished | Machine.Budget_exceeded -> ()
  done;
  Alcotest.(check bool) "found trapping faults that rollback recovers" true
    (!recovered >= 3)

let test_restore_budget_exhaustion () =
  (* a program that traps deterministically traps again after every
     restore; the retry budget must bound the loop and the final
     outcome must still be the trap *)
  let prog =
    let open Ast in
    Helpers.compile
      (Helpers.main_program
         ~globals:[ DScalar ("z", Ty.I64); DScalar ("x", Ty.I64) ]
         [
           SAssign ("z", i 0);
           SAssign ("x", i 1 / v "z");
           SPrint ("RESULT %d\n", [ v "x" ]);
         ])
  in
  let r =
    Machine.run prog
      {
        Machine.default_config with
        recover = Some { Machine.max_restores = 2; snapshot_interval = 10 };
      }
  in
  (match r.Machine.outcome with
  | Machine.Trapped _ -> ()
  | Machine.Finished -> Alcotest.fail "integer divide by zero cannot finish"
  | Machine.Budget_exceeded -> Alcotest.fail "unexpected budget exhaustion");
  Alcotest.(check int) "spent the whole restore budget" 2 r.Machine.restores

let test_armed_clean_run_is_identical () =
  (* arming recovery on a fault-free run must change nothing *)
  let prog = Helpers.compile (Helpers.two_region_program ()) in
  let plain = Machine.run_plain prog in
  let armed =
    Machine.run prog
      { Machine.default_config with recover = Some Machine.default_recover }
  in
  Helpers.check_finished armed;
  Alcotest.(check int) "no restores" 0 armed.Machine.restores;
  Alcotest.(check string) "same output" plain.Machine.output
    armed.Machine.output;
  Alcotest.(check bool) "same memory" true (plain.Machine.mem = armed.Machine.mem);
  Alcotest.(check int) "same instruction count" plain.Machine.instructions
    armed.Machine.instructions

(* --- campaign integration ------------------------------------------------- *)

let cg_campaign ?(trials = 60) model recovery =
  let app = Option.get (Registry.find_opt "CG") in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  Campaign.run prog ~verify:(App.verify app)
    ~clean_instructions:clean.Machine.instructions
    ~cfg:
      {
        Campaign.default_config with
        max_trials = Some trials;
        model;
        recovery;
      }
    target

let test_rollback_reduces_crashes_under_burst () =
  let none = cg_campaign (Fault_model.Burst 8) Campaign.No_recovery in
  let rb =
    cg_campaign (Fault_model.Burst 8)
      (Campaign.Rollback { max_restores = 3 })
  in
  Alcotest.(check bool) "bursts crash CG without recovery" true
    (none.Campaign.crashed > 0);
  Alcotest.(check bool) "rollback strictly reduces the crashed count" true
    (rb.Campaign.crashed < none.Campaign.crashed);
  Alcotest.(check bool) "crashes became recoveries" true
    (rb.Campaign.recovered > 0);
  Alcotest.(check int) "no recovered runs under the default policy" 0
    none.Campaign.recovered;
  Alcotest.(check int) "same classified trials" none.Campaign.trials
    rb.Campaign.trials

let test_single_bit_none_reproduces_pr4_counts () =
  (* the differential acceptance gate: the default model and policy,
     explicitly spelled, must reproduce the historical CG campaign
     counts at 300 trials exactly *)
  let c = cg_campaign ~trials:300 Fault_model.Single_bit Campaign.No_recovery in
  Alcotest.(check int) "success" 122 c.Campaign.success;
  Alcotest.(check int) "failed" 89 c.Campaign.failed;
  Alcotest.(check int) "crashed" 89 c.Campaign.crashed;
  Alcotest.(check int) "recovered" 0 c.Campaign.recovered;
  Alcotest.(check int) "trials" 300 c.Campaign.trials

(* --- Recovery_eval -------------------------------------------------------- *)

let test_recovery_eval_smoke () =
  let app = Option.get (Registry.find_opt "CG") in
  let r =
    Recovery_eval.evaluate ~size:2 ~serial_trials:8 ~mpi_trials:2
      ~msg_trials:2
      ~models:[ Fault_model.Single_bit ]
      app
  in
  Alcotest.(check int) "cells: 1 model x 2 policies x 2 modes" 4
    (List.length r.Recovery_eval.re_cells);
  Alcotest.(check int) "message cells: 3 kinds x 2 transports" 6
    (List.length r.Recovery_eval.re_messages);
  List.iter
    (fun (c : Recovery_eval.cell) ->
      let expected =
        match c.Recovery_eval.rc_mode with
        | Recovery_eval.Serial -> 8
        | Recovery_eval.Mpi _ -> 2
      in
      Alcotest.(check int) "cell trial count" expected
        c.Recovery_eval.rc_counts.Campaign.trials)
    r.Recovery_eval.re_cells;
  (* the CSV has one line per cell plus a header *)
  let lines = String.split_on_char '\n' (Recovery_eval.to_csv r) in
  Alcotest.(check int) "csv rows" (1 + 4 + 6)
    (List.length (List.filter (fun s -> s <> "") lines))

let suite =
  ( "recovery",
    [
      Alcotest.test_case "fault-model names round-trip" `Quick
        test_model_of_string_round_trips;
      Alcotest.test_case "fault-model sampling deterministic" `Quick
        test_model_sampling_is_deterministic;
      Alcotest.test_case "single-bit keeps historical stream" `Quick
        test_single_bit_sampling_matches_historical;
      Alcotest.test_case "rollback restores bit-exactly" `Slow
        test_rollback_restores_state_bit_exactly;
      Alcotest.test_case "restore budget exhaustion" `Quick
        test_restore_budget_exhaustion;
      Alcotest.test_case "armed clean run identical" `Quick
        test_armed_clean_run_is_identical;
      Alcotest.test_case "rollback reduces burst crashes" `Slow
        test_rollback_reduces_crashes_under_burst;
      Alcotest.test_case "single-bit/none reproduces PR4 CG counts" `Slow
        test_single_bit_none_reproduces_pr4_counts;
      Alcotest.test_case "recovery_eval smoke" `Slow test_recovery_eval_smoke;
    ] )
