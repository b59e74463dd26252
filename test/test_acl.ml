(* The ACL table: counting, death causes, and masking-event
   classification — each pattern demonstrated on a minimal program. *)

open Helpers

let first_seq_of_op t pred =
  let seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) -> if !seq < 0 && pred e then seq := e.seq)
    t;
  Alcotest.(check bool) "target instruction found" true (!seq >= 0);
  !seq

let analyze_with_fault prog fault =
  let _, clean = run_traced prog in
  let _, faulty = run_traced ~fault prog in
  Acl.analyze ~fault ~clean ~faulty ()

(* corrupting a value that is copied then overwritten: the count must
   rise to 2 (original + copy) and return to 0 *)
let test_count_rises_and_falls () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:
           [ DScalar ("x", Ty.I64); DScalar ("y", Ty.I64); DScalar ("r", Ty.I64) ]
         [
           SAssign ("x", i 1);
           SAssign ("y", v "x" + i 0);      (* corruption propagates to y *)
           SAssign ("r", v "x" + v "y");    (* both still alive *)
           SAssign ("x", i 5);              (* clean overwrite *)
           SAssign ("y", i 6);              (* clean overwrite *)
           SAssign ("r", i 7);              (* clean overwrite *)
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 3 }) in
  Alcotest.(check bool) "peak at least 2" true (acl.Acl.peak >= 2);
  Alcotest.(check int) "all corruption gone" 0 acl.Acl.final;
  Alcotest.(check bool) "overwrite deaths observed" true
    (List.exists (fun (d : Acl.death) -> d.Acl.d_cause = Acl.Overwritten)
       acl.Acl.deaths)

(* a corrupted temporary that is aggregated and never used again dies
   as a Dead Corrupted Location *)
let test_dcl_death () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("tmp", Ty.F64); DScalar ("out", Ty.F64) ]
         [
           SAssign ("tmp", f 1.0);
           SAssign ("out", v "tmp" + f 2.0);
           (* tmp never touched again; out reused cleanly *)
           SPrint ("RESULT %.17g\n", [ v "out" ]);
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 30 }) in
  Alcotest.(check bool) "dead death observed" true
    (List.exists (fun (d : Acl.death) -> d.Acl.d_cause = Acl.Dead)
       acl.Acl.deaths)

(* shifting: corrupt a low bit of a key consumed only via >> *)
let test_shift_masking_event () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("key", Ty.I64); DScalar ("bucket", Ty.I64) ]
         [
           SAssign ("key", i 0b110100);
           SAssign ("bucket", v "key" >> i 4);
           SAssign ("key", i 0);
         ])
  in
  let _, clean = run_traced prog in
  let seq =
    first_seq_of_op clean (fun e ->
        e.op = Trace.OStore && Array.length e.writes = 1)
  in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 1 }) in
  Alcotest.(check bool) "shift mask recorded" true
    (List.exists
       (fun (m : Acl.masking) -> m.Acl.m_kind = Acl.Shift_mask)
       acl.Acl.maskings)

(* truncation: corrupt a high bit consumed only via trunc32 *)
let test_trunc_masking_event () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("y", Ty.I64) ]
         [
           SAssign ("x", i 123);
           SAssign ("y", trunc32 (v "x"));
           SAssign ("x", i 0);
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 45 }) in
  Alcotest.(check bool) "trunc mask recorded" true
    (List.exists
       (fun (m : Acl.masking) -> m.Acl.m_kind = Acl.Trunc_mask)
       acl.Acl.maskings)

(* conditional: corrupt a compare operand without changing the branch *)
let test_cond_masking_event () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("r", Ty.I64) ]
         [
           SAssign ("x", i 100);
           SIf (v "x" > i 10, [ SAssign ("r", i 1) ], [ SAssign ("r", i 2) ]);
           SAssign ("x", i 0);
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  (* bit 1: 100 -> 102, still > 10, same direction *)
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 1 }) in
  Alcotest.(check bool) "cond mask recorded" true
    (List.exists
       (fun (m : Acl.masking) -> m.Acl.m_kind = Acl.Cond_mask)
       acl.Acl.maskings)

(* print truncation: corrupt mantissa bits below the printed precision *)
let test_print_masking_event () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.F64) ]
         [
           SAssign ("x", f 12345.6789);
           SPrint ("e=%12.6e\n", [ v "x" ]);
           SAssign ("x", f 0.0);
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 0 }) in
  Alcotest.(check bool) "print mask recorded" true
    (List.exists
       (fun (m : Acl.masking) -> m.Acl.m_kind = Acl.Print_mask)
       acl.Acl.maskings)

(* repeated additions: a self-accumulating float converges back *)
let test_repeated_addition_event () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("u", Ty.F64, [ 2 ]); DScalar ("r", Ty.F64) ]
         [
           SStore ("u", [ i 0 ], f 1.0);
           SFor
             ( "j",
               i 0,
               i 30,
               [
                 (* u[0] <- u[0]/2 + 2 converges to 4 from anywhere *)
                 SStore ("u", [ i 0 ], (f 0.5 * idx1 "u" (i 0)) + f 2.0);
               ] );
           SAssign ("r", idx1 "u" (i 0));
           SPrint ("RESULT %.17g\n", [ v "r" ]);
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 40 }) in
  Alcotest.(check bool) "repeated-addition events recorded" true
    (List.exists
       (fun (m : Acl.masking) ->
         match m.Acl.m_kind with Acl.Repeated_add _ -> true | _ -> false)
       acl.Acl.maskings);
  (* magnitudes in the events decrease *)
  List.iter
    (fun (m : Acl.masking) ->
      match m.Acl.m_kind with
      | Acl.Repeated_add { before; after } ->
          Alcotest.(check bool) "magnitude shrank" true (after < before)
      | _ -> ())
    acl.Acl.maskings

let test_series_counts_nonnegative () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("s", Ty.F64) ]
         [
           SAssign ("s", f 0.0);
           SFor ("j", i 0, i 10, [ SAssign ("s", v "s" + to_float (v "j")) ]);
           SPrint ("RESULT %.17g\n", [ v "s" ]);
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 20 }) in
  Array.iter
    (fun (_, c) -> Alcotest.(check bool) "count >= 0" true (c >= 0))
    acl.Acl.series;
  Alcotest.(check bool) "peak is the max" true
    (Array.for_all (fun (_, c) -> c <= acl.Acl.peak) acl.Acl.series)

(* A corrupted value's fate is settled by the faulty run's later
   accesses to its location, so each case below depends on steps after
   the one that corrupted it.  The expected values are pinned. *)

let global_loc prog name =
  match Prog.find_symbol prog name with
  | Some s -> Loc.Mem s.Prog.sym_addr
  | None -> Alcotest.failf "no symbol %s" name

let cause =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Acl.Dead -> "dead"
      | Acl.Overwritten -> "overwritten"))
    ( = )

(* a store through a corrupted index: the clean run writes u[0] where
   the faulty run writes u[1].  Clean-only writes corrupt u[0], replace
   its record and finally make it clean; whether its value was alive
   all that time, and whether its overwrite fed a value forward, hang
   on a faulty read of u[0] after all three *)
let test_corrupted_index () =
  let analyze ~read =
    let prog =
      let open Ast in
      compile
        (main_program
           ~globals:
             [ DScalar ("k", Ty.I64); DArr ("u", Ty.F64, [ 2 ]); DScalar ("t", Ty.F64) ]
           ([
              SAssign ("k", i 0);
              SStore ("u", [ v "k" ], f 5.0);
              SStore ("u", [ v "k" ], f 6.0);
              SStore ("u", [ v "k" ], f 0.0);
            ]
           @ if read then [ SAssign ("t", idx1 "u" (i 0)) ] else []))
    in
    let _, clean = run_traced prog in
    (* bit 0 of the store of k: the faulty run indexes u[1] *)
    let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
    let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 0 }) in
    let u0 = global_loc prog "u" in
    ( acl.Acl.peak,
      List.filter_map
        (fun (d : Acl.death) ->
          if Loc.equal d.Acl.d_loc u0 then Some (d.Acl.d_cause, d.Acl.d_fed_forward)
          else None)
        acl.Acl.deaths )
  in
  let expect = Alcotest.(pair int (list (pair cause bool))) in
  Alcotest.check expect "read after the overwrite" (4, [ (Acl.Overwritten, true) ])
    (analyze ~read:true);
  Alcotest.check expect "never read" (3, [ (Acl.Overwritten, false) ])
    (analyze ~read:false)

(* a corrupted value whose only later read comes after the divergence
   is alive when alignment stops: it counts in [final] *)
let test_read_after_divergence () =
  let analyze ~read =
    let prog =
      let open Ast in
      compile
        (main_program
           ~globals:
             [ DScalar ("a", Ty.I64); DScalar ("z", Ty.I64); DScalar ("w", Ty.I64);
               DScalar ("r", Ty.I64) ]
           ([
              SAssign ("a", i 5);
              SAssign ("z", v "a" * i 2);
              SIf (v "a" > i 10, [ SAssign ("w", i 1) ], [ SAssign ("w", i 2) ]);
            ]
           @ if read then [ SAssign ("r", v "z" + i 1) ] else []))
    in
    let _, clean = run_traced prog in
    (* bit 3 of the store of a: 5 becomes 13, and the branch flips *)
    let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
    let acl = analyze_with_fault prog (Machine.Flip_write { seq; bit = 3 }) in
    let z = global_loc prog "z" in
    ( acl.Acl.divergence,
      acl.Acl.final,
      List.exists (fun (d : Acl.death) -> Loc.equal d.Acl.d_loc z) acl.Acl.deaths )
  in
  let expect = Alcotest.(triple (option int) int bool) in
  Alcotest.check expect "z read after the divergence" (Some 14, 2, false)
    (analyze ~read:true);
  Alcotest.check expect "z never read" (Some 14, 1, false) (analyze ~read:false)

(* dead corrupted locations die the step after their last read, before
   that step's overwrites, the latest corrupted first: x - y reads two
   corrupted registers that are never written again, and the next step
   overwrites a register still holding a corrupted copy of y *)
let test_dead_order () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:
           [ DScalar ("x", Ty.I64); DScalar ("y", Ty.I64); DScalar ("z", Ty.I64);
             DScalar ("w", Ty.I64) ]
         [
           SAssign ("x", i 7);
           SAssign ("y", v "x" + i 0);
           SAssign ("z", (v "x" + i 0) + (v "y" + i 0));
           SAssign ("w", v "x" - v "y");
         ])
  in
  let _, clean = run_traced prog in
  let seq = first_seq_of_op clean (fun e -> e.op = Trace.OStore) in
  let fault = Machine.Flip_write { seq; bit = 2 } in
  let _, faulty = run_traced ~fault prog in
  let acl = Acl.analyze ~fault ~clean ~faulty () in
  let sub = ref (-1) in
  Trace.iteri
    (fun k (e : Trace.event) -> if e.op = Trace.OBin Op.Sub then sub := k)
    faulty;
  let step = !sub + 1 in
  let operand k = fst (Trace.get faulty !sub).Trace.reads.(k) in
  let overwritten = fst (Trace.get faulty step).Trace.writes.(0) in
  let loc = Alcotest.testable Loc.pp Loc.equal in
  Alcotest.(check (list (pair cause loc)))
    "deaths at the step after x - y"
    [ (Acl.Dead, operand 1); (Acl.Dead, operand 0); (Acl.Overwritten, overwritten) ]
    (List.filter_map
       (fun (d : Acl.death) ->
         if d.Acl.d_index = step then Some (d.Acl.d_cause, d.Acl.d_loc) else None)
       acl.Acl.deaths)

(* no fault: the ACL stays empty *)
let test_no_fault_no_corruption () =
  let prog = compile (loop_program ~iters:3) in
  let _, clean = run_traced prog in
  let _, faulty = run_traced prog in
  let acl = Acl.analyze ~clean ~faulty () in
  Alcotest.(check int) "peak 0" 0 acl.Acl.peak;
  Alcotest.(check int) "no deaths" 0 (List.length acl.Acl.deaths);
  Alcotest.(check int) "no maskings" 0 (List.length acl.Acl.maskings)

(* property: for random faults on a fixed program, the final ACL count
   is between 0 and the peak, and the series is seq-ordered *)
let prop_series_well_formed =
  QCheck.Test.make ~count:25 ~name:"acl series is ordered and bounded"
    QCheck.(pair (int_bound 2000) (int_bound 63))
    (fun (seq, bit) ->
      let prog = compile (loop_program ~iters:4) in
      let fault = Machine.Flip_write { seq; bit } in
      let _, clean = run_traced prog in
      let _, faulty = run_traced ~fault prog in
      let acl = Acl.analyze ~fault ~clean ~faulty () in
      let ordered = ref true in
      Array.iteri
        (fun k (s, _) ->
          if k > 0 && s <= fst acl.Acl.series.(k - 1) then ordered := false)
        acl.Acl.series;
      !ordered && acl.Acl.final >= 0 && acl.Acl.final <= acl.Acl.peak)

let suite =
  ( "acl",
    [
      Alcotest.test_case "count rises and falls" `Quick test_count_rises_and_falls;
      Alcotest.test_case "DCL death" `Quick test_dcl_death;
      Alcotest.test_case "shift masking" `Quick test_shift_masking_event;
      Alcotest.test_case "trunc masking" `Quick test_trunc_masking_event;
      Alcotest.test_case "conditional masking" `Quick test_cond_masking_event;
      Alcotest.test_case "print masking" `Quick test_print_masking_event;
      Alcotest.test_case "repeated additions" `Quick test_repeated_addition_event;
      Alcotest.test_case "series nonnegative" `Quick test_series_counts_nonnegative;
      Alcotest.test_case "no fault, no corruption" `Quick test_no_fault_no_corruption;
      Alcotest.test_case "store through a corrupted index" `Quick
        test_corrupted_index;
      Alcotest.test_case "read after the divergence" `Quick
        test_read_after_divergence;
      Alcotest.test_case "dead deaths before overwrites" `Quick test_dead_order;
      QCheck_alcotest.to_alcotest prop_series_well_formed;
    ] )
