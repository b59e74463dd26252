(* Masking-probability-weighted pattern rates (the paper's future-work
   refinement). *)

open Helpers

let test_shift_weight_monotone () =
  Alcotest.(check bool) "more shift, more masking" true
    (Weighted_rates.shift_weight 8L > Weighted_rates.shift_weight 2L);
  Alcotest.(check (float 0.0)) "zero shift masks nothing" 0.0
    (Weighted_rates.shift_weight 0L);
  Alcotest.(check bool) "bounded" true (Weighted_rates.shift_weight 63L <= 1.0)

let test_compare_weight_margin () =
  let w_far =
    Weighted_rates.compare_weight ~is_float:false (Value.of_int 1000000)
      (Value.of_int 0)
  in
  let w_near =
    Weighted_rates.compare_weight ~is_float:false (Value.of_int 3)
      (Value.of_int 0)
  in
  Alcotest.(check bool) "wide margins mask more" true (w_far > w_near);
  Alcotest.(check (float 0.0)) "equal operands mask nothing" 0.0
    (Weighted_rates.compare_weight ~is_float:false (Value.of_int 5)
       (Value.of_int 5))

let test_compare_weight_float () =
  let w =
    Weighted_rates.compare_weight ~is_float:true (Value.of_float 100.0)
      (Value.of_float 1.0)
  in
  Alcotest.(check bool) "in [0,1]" true (w >= 0.0 && w <= 1.0);
  Alcotest.(check bool) "wide float margin masks" true (w > 0.5);
  Alcotest.(check (float 0.0)) "nan masks nothing" 0.0
    (Weighted_rates.compare_weight ~is_float:true (Value.of_float Float.nan)
       (Value.of_float 1.0))

let test_fptosi_weight () =
  (* small values drop nearly the whole mantissa; huge values keep it *)
  let small = Weighted_rates.fptosi_weight (Value.of_float 1.5) in
  let large = Weighted_rates.fptosi_weight (Value.of_float 1e15) in
  Alcotest.(check bool) "small drops more" true (small > large);
  Alcotest.(check bool) "bounded" true (small <= 1.0 && large >= 0.0)

let test_print_weight () =
  let w6 = Weighted_rates.print_weight "%12.6e" in
  let w12 = Weighted_rates.print_weight "%.12e" in
  Alcotest.(check bool) "fewer digits mask more" true (w6 > w12);
  Alcotest.(check (float 0.0)) "%d masks nothing" 0.0
    (Weighted_rates.print_weight "%d")

let test_compute_bounds () =
  List.iter
    (fun (app : App.t) ->
      let _, trace = App.trace app in
      let w =
        Weighted_rates.compute trace (Rates.compute trace (Access.build trace))
      in
      Array.iter
        (fun x ->
          Alcotest.(check bool)
            (app.App.name ^ " weighted rate bounded")
            true
            (Float.is_finite x && x >= 0.0))
        (Weighted_rates.to_vector w))
    [ Is.app; Dc.app ]

let test_weighted_le_unweighted () =
  (* each instance contributes at most 1, so a weighted rate never
     exceeds its unweighted counterpart for shift/truncation *)
  let _, trace = App.trace Dc.app in
  let access = Access.build trace in
  let u = Rates.compute trace access in
  let w = Weighted_rates.compute trace u in
  Alcotest.(check bool) "shift" true (w.Weighted_rates.w_shift <= u.Rates.shift +. 1e-12);
  Alcotest.(check bool) "truncation" true
    (w.Weighted_rates.w_truncation <= u.Rates.truncation +. 1e-12)

let test_shifty_program_weights () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("a", Ty.I64); DScalar ("b", Ty.I64) ]
         [
           SAssign ("x", i 0xF0F0);
           SAssign ("a", v "x" >> i 12);
           SAssign ("b", v "x" >> i 1);
         ])
  in
  let _, t = run_traced prog in
  let w = Weighted_rates.compute t (Rates.compute t (Access.build t)) in
  (* two shifts: 12/32 + 1/32 over the instruction count *)
  Alcotest.(check bool) "positive" true (w.Weighted_rates.w_shift > 0.0);
  Alcotest.(check (float 1e-9)) "weighted sum"
    ((12.0 /. 32.0) +. (1.0 /. 32.0))
    (w.Weighted_rates.w_shift *. Float.of_int (Trace.length t))

let suite =
  ( "weighted",
    [
      Alcotest.test_case "shift weight monotone" `Quick test_shift_weight_monotone;
      Alcotest.test_case "compare weight margin" `Quick test_compare_weight_margin;
      Alcotest.test_case "compare weight float" `Quick test_compare_weight_float;
      Alcotest.test_case "fptosi weight" `Quick test_fptosi_weight;
      Alcotest.test_case "print weight" `Quick test_print_weight;
      Alcotest.test_case "compute bounds" `Quick test_compute_bounds;
      Alcotest.test_case "weighted <= unweighted" `Quick test_weighted_le_unweighted;
      Alcotest.test_case "shifty program" `Quick test_shifty_program_weights;
    ] )
