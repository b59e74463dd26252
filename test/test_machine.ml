(* VM execution: semantics, crash model, fault hooks, formatting,
   randlc, determinism. *)

open Helpers

let test_memory_ops () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("a", Ty.I64, [ 4 ]); DScalar ("r", Ty.I64) ]
         [
           SStore ("a", [ i 1 ], i 11);
           SStore ("a", [ i 2 ], idx1 "a" (i 1) + i 1);
           SAssign ("r", idx1 "a" (i 2));
         ])
  in
  Alcotest.(check int) "load/store chain" 12 (mem_int prog (run prog) "r")

let test_segfault_trap () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("a", Ty.I64, [ 4 ]) ]
         [ SStore ("a", [ i 100_000_000 ], i 1) ])
  in
  match (run prog).Machine.outcome with
  | Machine.Trapped m ->
      Alcotest.(check bool) "segfault" true
        (String.length m >= 8 && String.equal (String.sub m 0 8) "segfault")
  | Machine.Finished | Machine.Budget_exceeded ->
      Alcotest.fail "expected a segfault"

let test_div_zero_crash () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("r", Ty.I64); DScalar ("z", Ty.I64) ]
         [ SAssign ("z", i 0); SAssign ("r", i 1 / v "z") ])
  in
  match (run prog).Machine.outcome with
  | Machine.Trapped _ -> ()
  | Machine.Finished | Machine.Budget_exceeded -> Alcotest.fail "expected trap"

let test_budget_hang_detection () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64) ]
         [ SAssign ("x", i 1); SWhile (v "x" > i 0, [ SAssign ("x", i 1) ]) ])
  in
  match (run ~budget:10_000 prog).Machine.outcome with
  | Machine.Budget_exceeded -> ()
  | Machine.Finished | Machine.Trapped _ -> Alcotest.fail "expected hang"

let test_print_formats () =
  let prog =
    let open Ast in
    compile
      (main_program
         [
           SPrint ("i=%d x=%x\n", [ i 42; i 255 ]);
           SPrint ("e=%12.6e g=%g f=%.2f\n", [ f 12345.6789; f 0.5; f 1.239 ]);
           SPrint ("pct=100%%\n", []);
         ])
  in
  let r = run prog in
  check_finished r;
  Alcotest.(check string) "formatted output"
    "i=42 x=ff\ne=1.234568e+04 g=0.5 f=1.24\npct=100%\n" r.Machine.output

let test_print_truncation_masks () =
  (* two doubles that differ below the printed precision render the
     same: the output-truncation pattern *)
  let a = 12345.678901 and b = 12345.678902 in
  Alcotest.(check string) "same rendering"
    (Machine.format_output "%12.6e" [ Value.of_float a ])
    (Machine.format_output "%12.6e" [ Value.of_float b ])

let test_randlc_reference () =
  (* NPB randlc from seed 314159265 with multiplier 1220703125 *)
  let x, r1 = Machine.randlc_step 314159265.0 1220703125.0 in
  let _, r2 = Machine.randlc_step x 1220703125.0 in
  Alcotest.(check bool) "in (0,1)" true (r1 > 0.0 && r1 < 1.0 && r2 > 0.0 && r2 < 1.0);
  Alcotest.(check bool) "distinct" true (r1 <> r2);
  (* the sequence is the canonical NPB one: state stays in [1, 2^46) *)
  Alcotest.(check bool) "state range" true (x >= 1.0 && x < 7.0368744177664e13)

let test_randlc_intrinsic_matches_step () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:
           [ DScalar ("tran", Ty.F64); DScalar ("amult", Ty.F64); DScalar ("r", Ty.F64) ]
         [
           SAssign ("tran", f 314159265.0);
           SAssign ("amult", f 1220703125.0);
           SAssign ("r", Randlc ("tran", v "amult"));
         ])
  in
  let res = run prog in
  let _, expected = Machine.randlc_step 314159265.0 1220703125.0 in
  Alcotest.(check (float 0.0)) "intrinsic = reference" expected
    (mem_float prog res "r")

let test_flip_write_changes_result () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("r", Ty.I64) ]
         [ SAssign ("r", i 5 + i 6) ])
  in
  (* find the dynamic instruction that writes the sum: trace it *)
  let _, t = run_traced prog in
  let seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      match e.op with Trace.OBin Op.Add -> seq := e.seq | _ -> ())
    t;
  Alcotest.(check bool) "found the add" true (!seq >= 0);
  let r = run ~fault:(Machine.Flip_write { seq = !seq; bit = 4 }) prog in
  Alcotest.(check int) "flipped bit 4 of 11" (11 lxor 16) (mem_int prog r "r")

let test_flip_mem () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("a", Ty.I64); DScalar ("r", Ty.I64) ]
         [ SAssign ("a", i 1); SAssign ("r", v "a" + i 0) ])
  in
  let addr =
    match Prog.find_symbol prog "a" with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.fail "no symbol"
  in
  (* find the sequence number right after the store to a *)
  let _, t = run_traced prog in
  let store_seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      if !store_seq < 0 && e.op = Trace.OStore then store_seq := e.seq)
    t;
  let r =
    run ~fault:(Machine.Flip_mem { seq = !store_seq + 1; addr; bit = 1 }) prog
  in
  Alcotest.(check int) "memory flip propagates" 3 (mem_int prog r "r")

let test_single_fault_applied_once () =
  (* a Flip_write at a seq executed once must not fire again *)
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("s", Ty.I64) ]
         [
           SAssign ("s", i 0);
           SFor ("j", i 0, i 5, [ SAssign ("s", v "s" + i 1) ]);
         ])
  in
  let clean = run prog in
  let faulty = run ~fault:(Machine.Flip_write { seq = max_int; bit = 0 }) prog in
  Alcotest.(check int) "out-of-range seq is inert" (mem_int prog clean "s")
    (mem_int prog faulty "s")

let test_iteration_marks_counted () =
  let prog = compile (loop_program ~iters:7) in
  let r = run ~iter_mark:(Prog.mark_id prog "main_iter") prog in
  Alcotest.(check int) "iterations" 7 r.Machine.iterations

let test_determinism () =
  List.iter
    (fun (app : App.t) ->
      let r1 = Machine.run_plain (App.program app) in
      let r2 = Machine.run_plain (App.program app) in
      Alcotest.(check string) (app.App.name ^ " output") r1.Machine.output
        r2.Machine.output;
      Alcotest.(check int)
        (app.App.name ^ " instruction count")
        r1.Machine.instructions r2.Machine.instructions)
    [ Cg.app; Is.app; Dc.app ]

let test_stack_overflow_trap () =
  (* hand-built IR with a self-call, bypassing the compiler's check *)
  let f : Prog.func =
    {
      Prog.fname = "loop";
      nregs = 1;
      code = [| Instr.Call (0, [||], None); Instr.Ret None |];
      lines = [| 0; 0 |];
      regions = [| -1; -1 |];
    }
  in
  let prog =
    {
      Prog.funcs = [| f |];
      entry = 0;
      mem_size = 16;
      init_mem = [];
      region_table = [||];
      mark_names = [||];
      symbols = [];
    }
  in
  match (run prog).Machine.outcome with
  | Machine.Trapped m -> Alcotest.(check string) "overflow" "call stack overflow" m
  | Machine.Finished | Machine.Budget_exceeded ->
      Alcotest.fail "expected stack overflow"

(* The traced/untraced seq contract: attaching a trace must not perturb
   the dynamic sequence numbering, because fault sites are harvested
   from traced runs and injected into untraced ones keyed by seq.
   kmeans is the registry app with value-returning calls — exactly
   where the historical bug (the call-return attribution event
   consuming a fresh seq only when tracing) displaced every subsequent
   site.  Checked two ways: the fault-free dynamic instruction counts
   agree, and a flip injected at each call-return attribution seq gives
   bit-identical results traced and untraced.  Both fail on the pre-fix
   interpreter. *)
let test_seq_parity_traced_untraced () =
  let app = Kmeans.app in
  let prog = App.program app in
  let iter_mark = App.iter_mark app in
  let rt, trace = App.trace app in
  let ru = Machine.run prog { Machine.default_config with iter_mark } in
  Alcotest.(check int) "traced and untraced instruction counts"
    ru.Machine.instructions rt.Machine.instructions;
  (* seq-keyed write streams must coincide: every traced write-event
     seq lies inside the untraced stream, and the attribution events
     share their call's seq instead of consuming one *)
  let ret_seqs = ref [] in
  Trace.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool)
        (Printf.sprintf "event seq %d within untraced stream" e.Trace.seq)
        true
        (e.Trace.seq < ru.Machine.instructions);
      match e.Trace.op with
      | Trace.ORet when Array.length e.Trace.writes > 0 ->
          ret_seqs := e.Trace.seq :: !ret_seqs
      | _ -> ())
    trace;
  let ret_seqs = List.sort_uniq compare !ret_seqs in
  Alcotest.(check bool) "kmeans has call-return attribution events" true
    (ret_seqs <> []);
  let budget = 20 * ru.Machine.instructions in
  List.iteri
    (fun i seq ->
      if i < 5 then begin
        let fault = Machine.Flip_write { seq; bit = 3 } in
        let ft, _ = App.trace_with_fault app fault ~budget in
        let fu =
          Machine.run prog
            {
              Machine.default_config with
              iter_mark;
              fault = Some fault;
              budget;
            }
        in
        let tag what = Printf.sprintf "%s under flip at seq %d" what seq in
        Alcotest.(check string) (tag "output") fu.Machine.output
          ft.Machine.output;
        Alcotest.(check int) (tag "instructions") fu.Machine.instructions
          ft.Machine.instructions;
        Alcotest.(check bool) (tag "memory") true
          (fu.Machine.mem = ft.Machine.mem)
      end)
    ret_seqs

exception Sink_stop

(* an exception raised by a sink stops the run and reaches the caller
   as itself, not as a trap — with or without checkpoint recovery *)
let test_sink_exception_propagates () =
  let prog = compile (loop_program ~iters:4) in
  List.iter
    (fun recover ->
      let seen = ref 0 in
      let sink _ =
        incr seen;
        if !seen = 10 then raise Sink_stop
      in
      match Machine.run prog { Machine.default_config with sink = Some sink; recover } with
      | _ -> Alcotest.fail "the run returned a result"
      | exception Sink_stop ->
          Alcotest.(check int) "stopped at the raising event" 10 !seen)
    [ None; Some Machine.default_recover ]

(* property: a fault never makes the VM raise; outcomes are always
   classified *)
let prop_faults_always_classified =
  QCheck.Test.make ~count:60 ~name:"every fault yields a classified outcome"
    QCheck.(pair (int_bound 5_000) (int_bound 63))
    (fun (seq, bit) ->
      let prog = compile (loop_program ~iters:4) in
      let r = run ~fault:(Machine.Flip_write { seq; bit }) prog in
      match r.Machine.outcome with
      | Machine.Finished | Machine.Trapped _ | Machine.Budget_exceeded -> true)

let suite =
  ( "machine",
    [
      Alcotest.test_case "memory ops" `Quick test_memory_ops;
      Alcotest.test_case "segfault trap" `Quick test_segfault_trap;
      Alcotest.test_case "division by zero crash" `Quick test_div_zero_crash;
      Alcotest.test_case "budget hang detection" `Quick test_budget_hang_detection;
      Alcotest.test_case "print formats" `Quick test_print_formats;
      Alcotest.test_case "print truncation masks" `Quick test_print_truncation_masks;
      Alcotest.test_case "randlc reference" `Quick test_randlc_reference;
      Alcotest.test_case "randlc intrinsic" `Quick test_randlc_intrinsic_matches_step;
      Alcotest.test_case "flip write" `Quick test_flip_write_changes_result;
      Alcotest.test_case "flip memory" `Quick test_flip_mem;
      Alcotest.test_case "inert out-of-range fault" `Quick test_single_fault_applied_once;
      Alcotest.test_case "iteration marks" `Quick test_iteration_marks_counted;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "stack overflow trap" `Quick test_stack_overflow_trap;
      Alcotest.test_case "sink exception propagates" `Quick
        test_sink_exception_propagates;
      Alcotest.test_case "seq parity traced/untraced" `Quick
        test_seq_parity_traced_untraced;
      QCheck_alcotest.to_alcotest prop_faults_always_classified;
    ] )
