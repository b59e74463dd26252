(* Region-level tolerance classification (Case 1 / Case 2). *)

open Helpers

let addr_of prog name =
  match Prog.find_symbol prog name with
  | Some s -> Loc.Mem s.Prog.sym_addr
  | None -> Alcotest.failf "symbol %s" name

(* region "mask" consumes x only through a shift, so a low-bit
   corruption of its input is absorbed: Case 1 *)
let masked_region_program () =
  let open Ast in
  main_program
    ~globals:[ DScalar ("x", Ty.I64); DScalar ("out", Ty.I64) ]
    [
      SAssign ("x", i 0b1100000);
      SRegion ("mask", 1, 5, [ SAssign ("out", v "x" >> i 5) ]);
      SPrint ("RESULT %d\n", [ v "out" ]);
    ]

let region_span t rid =
  match Region.find_instance t ~rid ~number:0 with
  | Some i -> (i.Region.lo, i.Region.hi)
  | None -> Alcotest.fail "region instance missing"

let test_case1_masked () =
  let prog = compile (masked_region_program ()) in
  let _, clean = run_traced prog in
  let lo, hi = region_span clean 0 in
  let x = addr_of prog "x" and out = addr_of prog "out" in
  let entry_seq = (Trace.get clean lo).Trace.seq in
  let addr = match x with Loc.Mem a -> a | Loc.Reg _ -> assert false in
  let fault = flip_mem ~seq:entry_seq ~addr 2 in
  let _, faulty = run_traced ~fault prog in
  let replay = Trace.replay faulty in
  match
    Tolerance.classify ~fault ~clean ~replay ~inputs:[ x ] ~outputs:[ out ]
      ~lo ~hi ()
  with
  | Tolerance.Case1_masked -> ()
  | c -> Alcotest.failf "expected Case1, got %s" (Tolerance.to_string c)

let test_not_affected () =
  let prog = compile (masked_region_program ()) in
  let _, clean = run_traced prog in
  let lo, hi = region_span clean 0 in
  let x = addr_of prog "x" and out = addr_of prog "out" in
  (* no fault at all *)
  let _, faulty = run_traced prog in
  let replay = Trace.replay faulty in
  match
    Tolerance.classify ~clean ~replay ~inputs:[ x ] ~outputs:[ out ] ~lo ~hi ()
  with
  | Tolerance.Not_affected -> ()
  | c -> Alcotest.failf "expected Not_affected, got %s" (Tolerance.to_string c)

(* region "damp" halves the error: x' = x/2 + c, so the error magnitude
   of a corrupted input shrinks across the region: Case 2 *)
let damping_region_program () =
  let open Ast in
  main_program
    ~globals:[ DScalar ("x", Ty.F64) ]
    [
      SAssign ("x", f 8.0);
      SRegion ("damp", 1, 5, [ SAssign ("x", (f 0.5 * v "x") + f 2.0) ]);
      SPrint ("RESULT %.17g\n", [ v "x" ]);
    ]

let test_case2_diminished () =
  let prog = compile (damping_region_program ()) in
  let _, clean = run_traced prog in
  let lo, hi = region_span clean 0 in
  let x = addr_of prog "x" in
  let addr = match x with Loc.Mem a -> a | Loc.Reg _ -> assert false in
  let entry_seq = (Trace.get clean lo).Trace.seq in
  (* mantissa corruption: 8.0 -> 8+eps *)
  let fault = flip_mem ~seq:entry_seq ~addr 44 in
  let _, faulty = run_traced ~fault prog in
  let replay = Trace.replay faulty in
  match
    Tolerance.classify ~fault ~clean ~replay ~inputs:[ x ] ~outputs:[ x ] ~lo
      ~hi ()
  with
  | Tolerance.Case2_diminished { entry_mag; exit_mag } ->
      Alcotest.(check bool) "magnitude halved" true (exit_mag < entry_mag)
  | c -> Alcotest.failf "expected Case2, got %s" (Tolerance.to_string c)

(* region "amplify" doubles the error: Propagated *)
let test_propagated () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.F64) ]
         [
           SAssign ("x", f 1.0);
           SRegion ("amp", 1, 5, [ SAssign ("x", f 2.0 * v "x") ]);
           SPrint ("RESULT %.17g\n", [ v "x" ]);
         ])
  in
  let _, clean = run_traced prog in
  let lo, hi = region_span clean 0 in
  let x = addr_of prog "x" in
  let addr = match x with Loc.Mem a -> a | Loc.Reg _ -> assert false in
  let entry_seq = (Trace.get clean lo).Trace.seq in
  let fault = flip_mem ~seq:entry_seq ~addr 40 in
  let _, faulty = run_traced ~fault prog in
  let replay = Trace.replay faulty in
  match
    Tolerance.classify ~fault ~clean ~replay ~inputs:[ x ] ~outputs:[ x ] ~lo
      ~hi ()
  with
  | Tolerance.Propagated _ -> ()
  (* 2x is relative-error preserving, so Case2 must NOT be reported *)
  | c -> Alcotest.failf "expected Propagated, got %s" (Tolerance.to_string c)

let test_magnitude_by_iteration_decreasing () =
  (* contraction toward 4: |error| decays geometrically per iteration *)
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.F64) ]
         [
           SAssign ("x", f 1.0);
           SFor
             ( "it",
               i 0,
               i 5,
               [
                 SMark "main_iter";
                 SAssign ("x", (f 0.5 * v "x") + f 2.0);
               ] );
           SPrint ("RESULT %.17g\n", [ v "x" ]);
         ])
  in
  let iter_mark = Prog.mark_id prog "main_iter" in
  let _, clean = run_traced ~iter_mark prog in
  let addr =
    match Prog.find_symbol prog "x" with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.fail "no x"
  in
  let fault = flip_mem ~seq:10 ~addr 48 in
  let _, faulty = run_traced ~iter_mark ~fault prog in
  let replay = Trace.replay faulty in
  let rows = Tolerance.magnitude_by_iteration ~fault ~clean ~replay ~addr () in
  Alcotest.(check bool) "several samples" true (List.length rows >= 3);
  let mags = List.map (fun (_, _, _, m) -> m) rows in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone decay" true
    (decreasing (List.filter (fun m -> Float.is_finite m) mags))

let suite =
  ( "tolerance",
    [
      Alcotest.test_case "case 1: masked" `Quick test_case1_masked;
      Alcotest.test_case "not affected" `Quick test_not_affected;
      Alcotest.test_case "case 2: diminished" `Quick test_case2_diminished;
      Alcotest.test_case "propagated" `Quick test_propagated;
      Alcotest.test_case "magnitude by iteration" `Quick
        test_magnitude_by_iteration_decreasing;
    ] )
