(* RNG, statistics, and fault-injection campaigns. *)

open Helpers

(* --- rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true
    (not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)))

let test_rng_int_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_covers () =
  (* all residues of a small bound appear in a reasonable sample *)
  let rng = Rng.create ~seed:3 in
  let seen = Array.make 8 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:4 in
  let b = Rng.split a in
  Alcotest.(check bool) "fork diverges" true
    (not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)))

let prop_rng_int_bounds =
  QCheck.Test.make ~count:300 ~name:"Rng.int respects any positive bound"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_derive_is_pure () =
  let a = Rng.derive ~seed:42 ~index:17 and b = Rng.derive ~seed:42 ~index:17 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "pure in (seed, index)" (Rng.next_int64 a)
      (Rng.next_int64 b)
  done

let test_rng_derive_streams_diverge () =
  (* neighboring trial indices must not share a stream: compare the
     first few outputs of many adjacent indices pairwise *)
  let firsts =
    Array.init 200 (fun i -> Rng.next_int64 (Rng.derive ~seed:42 ~index:i))
  in
  let distinct = Hashtbl.create 256 in
  Array.iter (fun v -> Hashtbl.replace distinct v ()) firsts;
  Alcotest.(check int) "no collisions across 200 indices" 200
    (Hashtbl.length distinct)

let test_rng_derive_negative_index () =
  match Rng.derive ~seed:1 ~index:(-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let prop_rng_derive_independent_of_neighbors =
  QCheck.Test.make ~count:300
    ~name:"Rng.derive: adjacent indices yield different streams"
    QCheck.(pair small_int (int_range 0 100_000))
    (fun (seed, index) ->
      let a = Rng.derive ~seed ~index and b = Rng.derive ~seed ~index:(index + 1) in
      not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)))

let test_rng_int_bound_one () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 is always 0" 0 (Rng.int rng 1)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:11 in
  List.iter
    (fun bound ->
      match Rng.int rng bound with
      | _ -> Alcotest.failf "bound %d should raise" bound
      | exception Invalid_argument _ -> ())
    [ 0; -1; -1000 ]

(* --- stats --------------------------------------------------------------- *)

let test_sample_size_known_values () =
  (* the classic 95%/3% and 99%/1% designs over a large population *)
  let n95 = Stats.sample_size ~population:10_000_000 ~confidence:0.95 ~margin:0.03 in
  Alcotest.(check bool) "95/3 ~ 1067" true (abs (n95 - 1067) <= 2);
  let n99 = Stats.sample_size ~population:10_000_000 ~confidence:0.99 ~margin:0.01 in
  Alcotest.(check bool) "99/1 ~ 16587" true (abs (n99 - 16587) <= 30)

let test_sample_size_small_population () =
  Alcotest.(check int) "capped at population" 10
    (Stats.sample_size ~population:10 ~confidence:0.95 ~margin:0.03);
  Alcotest.(check int) "empty population" 0
    (Stats.sample_size ~population:0 ~confidence:0.95 ~margin:0.03)

let test_sample_size_monotone_in_margin () =
  let n margin = Stats.sample_size ~population:1_000_000 ~confidence:0.95 ~margin in
  Alcotest.(check bool) "tighter margin needs more samples" true
    (n 0.01 > n 0.03 && n 0.03 > n 0.10)

let test_wilson_interval () =
  let lo, hi = Stats.wilson_interval ~successes:60 ~trials:100 ~confidence:0.95 in
  Alcotest.(check bool) "contains p-hat" true (lo <= 0.6 && 0.6 <= hi);
  Alcotest.(check bool) "proper bounds" true (0.0 <= lo && hi <= 1.0 && lo < hi);
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:0 ~confidence:0.95 in
  Alcotest.(check bool) "vacuous" true (lo0 = 0.0 && hi0 = 1.0)

let test_mean_stddev () =
  Alcotest.(check (float 1e-12)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-12)) "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.mean [||])

(* every fault model confines its corruption to the low [bits] bits of
   the datum — the contract that keeps 32-bit-typed sites 32-bit under
   every model, including the widest burst at full width *)
let prop_fault_model_confined =
  QCheck.Test.make ~count:500
    ~name:"Fault_model.sample: corruption confined to the low bits"
    QCheck.(triple small_int (int_range 1 64) (int_range 0 100_000))
    (fun (seed, bits, index) ->
      let models =
        [
          Fault_model.Single_bit;
          Fault_model.Double_adjacent;
          Fault_model.Burst 2;
          Fault_model.Burst 8;
          Fault_model.Burst 64;
          Fault_model.Stuck_at;
        ]
      in
      let high = if bits >= 64 then 0L else Int64.shift_left (-1L) bits in
      (* [Machine.corrupt] is bitwise, so invariance on the all-zeros
         and all-ones inputs implies invariance on every input *)
      let confined c =
        List.for_all
          (fun v ->
            let v' = Machine.corrupt c v in
            Int64.logand (Int64.logxor v v') high = 0L)
          [ 0L; -1L ]
      in
      List.for_all
        (fun model ->
          let rng = Rng.derive ~seed ~index in
          confined (Fault_model.sample model rng ~bits))
        models)

let prop_wilson_shrinks_with_trials =
  QCheck.Test.make ~count:100 ~name:"wilson interval narrows with more trials"
    QCheck.(int_range 1 500)
    (fun trials ->
      let w t =
        let lo, hi = Stats.wilson_interval ~successes:(t / 2) ~trials:t ~confidence:0.95 in
        hi -. lo
      in
      w (4 * trials) <= w trials +. 1e-9)

(* --- campaign ------------------------------------------------------------ *)

(* a program whose RESULT is insensitive to its dead variable: flips
   targeted at the dead store must all verify *)
let dead_store_program () =
  let open Ast in
  main_program
    ~globals:[ DScalar ("dead", Ty.F64); DScalar ("live", Ty.F64) ]
    [
      SRegion ("deadr", 1, 2, [ SAssign ("dead", f 42.0) ]);
      SRegion ("liver", 3, 4, [ SAssign ("live", f 1.0) ]);
      SPrint ("RESULT %.17g\nVERIFIED %d\n", [ v "live"; i 1 ]);
    ]

let test_campaign_dead_region_fully_resilient () =
  let prog = compile (dead_store_program ()) in
  let r, t = run_traced prog in
  let inst =
    match Region.find_instance t ~rid:0 ~number:0 with
    | Some i -> i
    | None -> Alcotest.fail "region"
  in
  let target = Campaign.internal_target prog t inst in
  let counts =
    Campaign.run prog
      ~verify:(fun res -> App.verified res.Machine.output)
      ~clean_instructions:r.Machine.instructions
      ~cfg:{ Campaign.default_config with max_trials = Some 50 }
      target
  in
  (* value flips on the dead store are fully masked; flips on its
     address computation may trap (wild store), but none may produce
     silent data corruption *)
  Alcotest.(check int) "no SDC" 0 counts.Campaign.failed;
  Alcotest.(check bool) "mostly masked" true
    (Stdlib.( >= ) (2 * counts.Campaign.success) counts.Campaign.trials)

let test_campaign_classifies_crashes () =
  (* faults on an address computation can crash; the campaign must
     classify, not raise *)
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("a", Ty.F64, [ 4 ]); DScalar ("s", Ty.F64) ]
         [
           SRegion
             ( "r",
               1,
               9,
               [
                 SAssign ("s", f 0.0);
                 SFor
                   ( "j",
                     i 0,
                     i 4,
                     [
                       SStore ("a", [ v "j" ], to_float (v "j"));
                       SAssign ("s", v "s" + idx1 "a" (v "j"));
                     ] );
               ] );
           SPrint ("RESULT %.17g\nVERIFIED %d\n", [ v "s"; i 1 ]);
         ])
  in
  let r, t = run_traced prog in
  let inst = List.hd (Region.instances t) in
  let target = Campaign.internal_target prog t inst in
  let counts =
    Campaign.run prog
      ~verify:(fun res -> App.verified res.Machine.output)
      ~clean_instructions:r.Machine.instructions
      ~cfg:{ Campaign.default_config with max_trials = Some 80 }
      target
  in
  Alcotest.(check int) "all trials accounted" counts.Campaign.trials
    (counts.Campaign.success + counts.Campaign.failed + counts.Campaign.crashed);
  Alcotest.(check bool) "some trials ran" true (counts.Campaign.trials > 0)

let test_population_counts_typed_bits () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("yf", Ty.F64) ]
         [
           SRegion
             ("r", 1, 2, [ SAssign ("x", i 1); SAssign ("yf", f 1.0) ]);
           SPrint ("RESULT %d\n", [ v "x" ]);
         ])
  in
  let _, t = run_traced prog in
  let inst = List.hd (Region.instances t) in
  let target = Campaign.internal_target prog t inst in
  (* integer destinations count 32 bits, float destinations 64 *)
  let pop = Campaign.target_population target in
  Alcotest.(check bool) "mixed widths" true (pop > 0 && pop mod 32 = 0)

let test_input_target_types () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let access = Access.build t in
  let consume = List.nth (Region.instances t) 1 in
  match Campaign.input_target prog t access consume with
  | Campaign.Input { sites; _ } ->
      Alcotest.(check bool) "inputs exist" true (Array.length sites > 0);
      Array.iter
        (fun (s : Campaign.input_site) ->
          Alcotest.(check bool) "width is 32 or 64" true
            (s.Campaign.bits = 32 || s.Campaign.bits = 64))
        sites
  | _ -> Alcotest.fail "expected Input target"

let test_success_rate () =
  let c =
    {
      Campaign.success = 3;
      failed = 1;
      crashed = 1;
      recovered = 0;
      trials = 5;
      infra = 0;
    }
  in
  Alcotest.(check (float 1e-12)) "rate" 0.6 (Campaign.success_rate c);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Campaign.success_rate Campaign.zero_counts)

let test_sampling_is_seeded () =
  let prog = compile (dead_store_program ()) in
  let _, t = run_traced prog in
  let inst = List.hd (Region.instances t) in
  let target = Campaign.internal_target prog t inst in
  let f1 = Campaign.sample_fault (Rng.create ~seed:7) target in
  let f2 = Campaign.sample_fault (Rng.create ~seed:7) target in
  Alcotest.(check bool) "same seed, same fault" true (f1 = f2)

(* --- resilient execution ------------------------------------------------- *)

let with_temp_journal f =
  let path = Filename.temp_file "fliptracker" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

(* a loop whose bound lives in memory: a bit flip on [n] mid-loop makes
   the bound huge and the run must be classified as a hang, not spin *)
let hang_program () =
  let open Ast in
  main_program
    ~globals:[ DScalar ("n", Ty.I64); DScalar ("acc", Ty.I64) ]
    [
      SAssign ("n", i 8);
      SAssign ("acc", i 0);
      SRegion
        ( "loop",
          1,
          9,
          [
            SWhile
              ( v "n" > i 0,
                [ SAssign ("acc", v "acc" + i 1); SAssign ("n", v "n" - i 1) ]
              );
          ] );
      SPrint ("RESULT %d\nVERIFIED %d\n", [ v "acc"; i 1 ]);
    ]

let test_hang_classified_as_crashed () =
  let prog = compile (hang_program ()) in
  let clean = Machine.run_plain prog in
  check_finished clean;
  let n_addr =
    match Prog.find_symbol prog "n" with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.fail "no symbol n"
  in
  (* corrupt the loop bound mid-flight: bit 20 ~ a million iterations *)
  let fault =
    flip_mem ~seq:(clean.Machine.instructions / 2) ~addr:n_addr 20
  in
  let budget = 20 * clean.Machine.instructions in
  let outcome =
    Campaign.run_one prog ~budget ~verify:(fun _ -> true) fault
  in
  Alcotest.(check bool) "hang is Crashed" true (outcome = Campaign.Crashed);
  (* the budget is what cuts the hang: the same faulty run, executed
     raw, stops at exactly the budget with Budget_exceeded *)
  let raw =
    Machine.run prog
      { Machine.default_config with budget; fault = Some fault }
  in
  Alcotest.(check bool) "budget exceeded" true
    (raw.Machine.outcome = Machine.Budget_exceeded);
  Alcotest.(check int) "stopped at the scaled budget" budget
    raw.Machine.instructions

let test_campaign_budget_factor_bounds_hangs () =
  let prog = compile (hang_program ()) in
  let r, t = run_traced prog in
  let target =
    Campaign.memory_during_function_target prog t ~fname:"main"
      ~vars:[ "n" ]
  in
  let cfg =
    { Campaign.default_config with max_trials = Some 40; budget_factor = 5 }
  in
  (* every trial terminates despite hang-inducing flips, because the
     budget scales with budget_factor; hangs classify as Crashed *)
  let counts =
    Campaign.run prog
      ~verify:(fun res -> String.equal res.Machine.output r.Machine.output)
      ~clean_instructions:r.Machine.instructions ~cfg target
  in
  Alcotest.(check int) "all trials classified" counts.Campaign.trials
    (counts.Campaign.success + counts.Campaign.failed + counts.Campaign.crashed);
  Alcotest.(check int) "no infra errors" 0 counts.Campaign.infra;
  Alcotest.(check bool) "high-bit flips of the bound hang" true
    (counts.Campaign.crashed > 0)

let test_campaign_jobs_and_resume_invariance () =
  let prog = compile (dead_store_program ()) in
  let r, t = run_traced prog in
  let target = Campaign.whole_program_target prog t in
  let verify res = App.verified res.Machine.output in
  let cfg = { Campaign.default_config with max_trials = Some 60 } in
  let run exec =
    Campaign.run_report prog ~verify
      ~clean_instructions:r.Machine.instructions ~cfg ~exec target
  in
  let base = (run Campaign.default_exec).Campaign.counts in
  let par =
    (run { Campaign.default_exec with jobs = 4; batch = 16 }).Campaign.counts
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 agree" true (base = par);
  with_temp_journal (fun path ->
      let exec =
        { Campaign.default_exec with journal = Some path; batch = 8 }
      in
      let full = run exec in
      Alcotest.(check bool) "journaled run agrees" true
        (full.Campaign.counts = base);
      (* simulate a kill mid-campaign: chop the journal, possibly
         mid-record, then resume *)
      let len = (Unix.stat path).Unix.st_size in
      truncate_file path (len * 2 / 3);
      let resumed = run { exec with Campaign.resume = true } in
      Alcotest.(check bool) "resume skipped journaled trials" true
        (resumed.Campaign.resumed > 0);
      Alcotest.(check bool) "kill-then-resume agrees" true
        (resumed.Campaign.counts = base))

let test_campaign_early_stop_reports_honestly () =
  let prog = compile (dead_store_program ()) in
  let r, t = run_traced prog in
  (* memory flips confined to the dead variable: value-only corruption
     that is never read, so every trial verifies — an extreme success
     rate whose Wilson interval closes at the minimum trial count,
     well before the planned design size *)
  let target =
    Campaign.memory_during_function_target prog t ~fname:"main"
      ~vars:[ "dead" ]
  in
  let report =
    Campaign.run_report prog
      ~verify:(fun res -> App.verified res.Machine.output)
      ~clean_instructions:r.Machine.instructions
      ~cfg:
        { Campaign.default_config with max_trials = Some 400; margin = 0.05 }
      ~exec:{ Campaign.default_exec with early_stop = true; batch = 25 }
      target
  in
  Alcotest.(check bool) "stopped early" true report.Campaign.stopped_early;
  Alcotest.(check bool) "honest partial count" true
    (report.Campaign.counts.Campaign.trials < report.Campaign.planned);
  Alcotest.(check bool) "not before the minimum trials" true
    (report.Campaign.counts.Campaign.trials >= 50)

let test_unknown_symbol_is_structured () =
  let prog = compile (dead_store_program ()) in
  let _, t = run_traced prog in
  match
    Campaign.memory_during_function_target prog t ~fname:"main"
      ~vars:[ "nope" ]
  with
  | _ -> Alcotest.fail "expected Unknown_symbol"
  | exception Campaign.Unknown_symbol { name; available } ->
      Alcotest.(check string) "names the offender" "nope" name;
      Alcotest.(check bool) "lists the valid symbols" true
        (List.mem "dead" available && List.mem "live" available)

(* No phantom sites: every fault site harvested from a traced run must
   be reachable in an untraced campaign run — the seq-keyed contract
   between harvesting and injection.  Checked for the whole-program
   target of every registry app against the untraced fault-free
   instruction count. *)
let test_no_phantom_sites () =
  List.iter
    (fun (app : App.t) ->
      let prog = App.program app in
      let _, trace = App.trace app in
      let untraced = Machine.run_plain prog in
      let target = Campaign.whole_program_target prog trace in
      Alcotest.(check (list int))
        (app.App.name ^ ": all harvested seqs reachable untraced")
        []
        (Campaign.unreachable_sites target
           ~instructions:untraced.Machine.instructions))
    Registry.all

let suite =
  ( "faults",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng int range" `Quick test_rng_int_range;
      Alcotest.test_case "rng int coverage" `Quick test_rng_int_covers;
      Alcotest.test_case "rng float range" `Quick test_rng_float_range;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      QCheck_alcotest.to_alcotest prop_rng_int_bounds;
      Alcotest.test_case "rng derive pure" `Quick test_rng_derive_is_pure;
      Alcotest.test_case "rng derive diverges" `Quick
        test_rng_derive_streams_diverge;
      Alcotest.test_case "rng derive negative index" `Quick
        test_rng_derive_negative_index;
      QCheck_alcotest.to_alcotest prop_rng_derive_independent_of_neighbors;
      Alcotest.test_case "rng int bound one" `Quick test_rng_int_bound_one;
      Alcotest.test_case "rng int rejects nonpositive" `Quick
        test_rng_int_rejects_nonpositive;
      Alcotest.test_case "sample size known" `Quick test_sample_size_known_values;
      Alcotest.test_case "sample size small population" `Quick
        test_sample_size_small_population;
      Alcotest.test_case "sample size monotone" `Quick
        test_sample_size_monotone_in_margin;
      Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
      Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
      QCheck_alcotest.to_alcotest prop_fault_model_confined;
      QCheck_alcotest.to_alcotest prop_wilson_shrinks_with_trials;
      Alcotest.test_case "dead region fully resilient" `Quick
        test_campaign_dead_region_fully_resilient;
      Alcotest.test_case "campaign classifies crashes" `Quick
        test_campaign_classifies_crashes;
      Alcotest.test_case "no phantom sites, ten apps" `Slow
        test_no_phantom_sites;
      Alcotest.test_case "typed population" `Quick test_population_counts_typed_bits;
      Alcotest.test_case "input target types" `Quick test_input_target_types;
      Alcotest.test_case "success rate" `Quick test_success_rate;
      Alcotest.test_case "seeded sampling" `Quick test_sampling_is_seeded;
      Alcotest.test_case "hang classified as crashed" `Quick
        test_hang_classified_as_crashed;
      Alcotest.test_case "budget factor bounds hangs" `Quick
        test_campaign_budget_factor_bounds_hangs;
      Alcotest.test_case "jobs and resume invariance" `Quick
        test_campaign_jobs_and_resume_invariance;
      Alcotest.test_case "early stop honest report" `Quick
        test_campaign_early_stop_reports_honestly;
      Alcotest.test_case "unknown symbol structured" `Quick
        test_unknown_symbol_is_structured;
    ] )
