(* Trace events: structure, region/instance/iteration stamping. *)

open Helpers

let test_event_counts () =
  let prog = compile (two_region_program ()) in
  let r, t = run_traced prog in
  check_finished r;
  (* the trace also carries synthetic call-return events, so it can be
     slightly longer than the executed-instruction count, never shorter *)
  Alcotest.(check bool) "events cover instructions" true
    (Trace.length t >= r.Machine.instructions)

let test_reads_and_writes_recorded () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64) ]
         [ SAssign ("x", i 3 + i 4) ])
  in
  let _, t = run_traced prog in
  let found = ref false in
  Trace.iter
    (fun (e : Trace.event) ->
      match e.op with
      | Trace.OBin Op.Add ->
          found := true;
          Alcotest.(check int) "two reads" 2 (Array.length e.reads);
          Alcotest.(check int) "one write" 1 (Array.length e.writes);
          Alcotest.(check int64) "sum value" 7L (snd e.writes.(0))
      | _ -> ())
    t;
  Alcotest.(check bool) "add event present" true !found

let test_store_event_shape () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DArr ("a", Ty.I64, [ 2 ]) ]
         [ SStore ("a", [ i 1 ], i 9) ])
  in
  let _, t = run_traced prog in
  let ok = ref false in
  Trace.iter
    (fun (e : Trace.event) ->
      if e.op = Trace.OStore then begin
        ok := true;
        match e.writes with
        | [| (Loc.Mem _, v) |] -> Alcotest.(check int64) "stored" 9L v
        | _ -> Alcotest.fail "store writes one memory word"
      end)
    t;
  Alcotest.(check bool) "store event" true !ok

let test_region_stamping () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let regions = Hashtbl.create 4 in
  Trace.iter
    (fun (e : Trace.event) ->
      if e.region >= 0 then Hashtbl.replace regions e.region ())
    t;
  Alcotest.(check int) "both regions appear" 2 (Hashtbl.length regions)

let test_region_inherited_through_calls () =
  let callee =
    let open Ast in
    {
      Ast.fname = "work"; params = []; ret = Some Ty.F64; locals = [];
      body = [ SRet (Some (f 1.0 + f 2.0)) ];
    }
  in
  let prog =
    compile
      (main_program ~funs:[ callee ]
         ~globals:[ DScalar ("x", Ty.F64) ]
         [ SRegion ("r", 1, 2, [ SAssign ("x", CallE ("work", [])) ]) ])
  in
  let _, t = run_traced prog in
  (* the callee's fadd executes with the caller's region *)
  let ok = ref false in
  Trace.iter
    (fun (e : Trace.event) ->
      if e.op = Trace.OBin Op.Fadd && e.region = 0 then ok := true)
    t;
  Alcotest.(check bool) "inherited region" true !ok

let test_iteration_stamping () =
  let prog = compile (loop_program ~iters:3) in
  let _, t = run_traced ~iter_mark:(Prog.mark_id prog "main_iter") prog in
  let max_iter = Trace.fold (fun a (e : Trace.event) -> max a e.iter) (-1) t in
  Alcotest.(check int) "iterations stamped" 2 max_iter

let test_control_signature () =
  let prog = compile (loop_program ~iters:2) in
  let _, t1 = run_traced prog in
  let _, t2 = run_traced prog in
  Alcotest.(check int) "same length" (Trace.length t1) (Trace.length t2);
  let same = ref true in
  Trace.iteri
    (fun k e ->
      let e2 = Trace.get t2 k in
      if Trace.control_signature e <> Trace.control_signature e2
         || not (Trace.same_control e e2)
      then same := false)
    t1;
  Alcotest.(check bool) "deterministic control path" true !same;
  Alcotest.(check bool) "another pc is another control point" false
    (Trace.same_control (Trace.get t1 0) (Trace.get t1 1))

let test_slice_bounds () =
  let prog = compile (loop_program ~iters:2) in
  let _, t = run_traced prog in
  Alcotest.(check int) "slice size" 5 (Array.length (Trace.slice t 3 8));
  Alcotest.check_raises "bad slice" (Invalid_argument "Trace.slice") (fun () ->
      ignore (Trace.slice t 5 (Trace.length t + 1)))

let suite =
  ( "trace",
    [
      Alcotest.test_case "event counts" `Quick test_event_counts;
      Alcotest.test_case "reads and writes" `Quick test_reads_and_writes_recorded;
      Alcotest.test_case "store event shape" `Quick test_store_event_shape;
      Alcotest.test_case "region stamping" `Quick test_region_stamping;
      Alcotest.test_case "region inherited through calls" `Quick
        test_region_inherited_through_calls;
      Alcotest.test_case "iteration stamping" `Quick test_iteration_stamping;
      Alcotest.test_case "control signature" `Quick test_control_signature;
      Alcotest.test_case "slice bounds" `Quick test_slice_bounds;
    ] )
