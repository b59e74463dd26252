(* End-to-end experiment drivers (small-effort configurations). *)

let tiny : Effort.t =
  {
    Effort.campaign =
      { Campaign.default_config with max_trials = Some 12; budget_factor = 8 };
    acl_injections = 1;
    fig4_ranks = 2;
    timing_runs = 2;
    jobs = 2;
  }

let test_fig5_structure () =
  let rows = Experiments.fig5 ~effort:tiny Is.app in
  Alcotest.(check int) "one row per region" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.region_rates_row) ->
      Alcotest.(check bool) "trials ran" true (r.rr_internal.Campaign.trials > 0);
      let sr = Campaign.success_rate r.rr_internal in
      Alcotest.(check bool) "rate in range" true (sr >= 0.0 && sr <= 1.0))
    rows

let test_fig6_structure () =
  let rows = Experiments.fig6 ~effort:tiny Is.app in
  Alcotest.(check int) "one row per iteration" Is.niter (List.length rows);
  List.iteri
    (fun k (r : Experiments.iteration_rates_row) ->
      Alcotest.(check int) "ordered iterations" k r.ir_iteration)
    rows

let test_fig7_structure () =
  let s = Experiments.fig7 Lulesh.app in
  let acl = s.Experiments.as_result in
  Alcotest.(check bool) "series nonempty" true (Array.length acl.Acl.series > 1);
  Alcotest.(check bool) "peak positive" true (acl.Acl.peak > 0);
  (* the fault sits in the targeted late iteration *)
  Alcotest.(check bool) "fault placed" true
    (match s.Experiments.as_fault with
    | Machine.Write { seq; _ } -> seq > 0
    | _ -> false)

let test_table1_structure () =
  let rows = Experiments.table1 ~effort:tiny Mg.app in
  Alcotest.(check int) "one row per region" 4 (List.length rows);
  List.iter
    (fun (r : Experiments.table1_row) ->
      Alcotest.(check bool) "line range sane" true
        (fst r.t1_lines < snd r.t1_lines);
      Alcotest.(check bool) "instructions counted" true (r.t1_instr_per_iter > 0))
    rows

let test_table2_monotone () =
  let rows = Experiments.table2 () in
  Alcotest.(check int) "four V-cycles" 4 (List.length rows);
  let mags =
    List.map (fun (r : Experiments.table2_row) -> r.t2_magnitude) rows
    |> List.filter Float.is_finite
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "repeated additions shrink the error" true
    (decreasing mags);
  (* the magnitudes Table II prints *)
  Alcotest.(check (list string)) "pinned magnitudes"
    [ "2.106742e-04"; "1.903487e-05"; "4.071215e-06"; "1.720555e-06" ]
    (List.map (Printf.sprintf "%.6e") mags)

let test_table2_bit_argument () =
  (* a different bit gives a different (still shrinking) trajectory *)
  let rows = Experiments.table2 ~bit:42 () in
  Alcotest.(check bool) "runs with other bits" true (List.length rows = 4)

let test_table4_structure () =
  (* restrict to four apps to keep the test fast; the full ten-app run
     belongs to the bench harness *)
  let apps = [ Is.app; Dc.app; Lu.app; Bt.app ] in
  let t = Experiments.table4 ~effort:tiny ~apps () in
  Alcotest.(check int) "one row per app" 4 (List.length t.Experiments.rows);
  Alcotest.(check bool) "r-square bounded" true (t.Experiments.r_square <= 1.0 +. 1e-9);
  Alcotest.(check int) "six coefficients" 6
    (Array.length t.Experiments.std_coefficients);
  List.iter
    (fun (r : Experiments.table4_row) ->
      Alcotest.(check bool) "measured in [0,1]" true
        (r.t4_measured >= 0.0 && r.t4_measured <= 1.0);
      Alcotest.(check bool) "predicted in [0,1]" true
        (r.t4_predicted >= 0.0 && r.t4_predicted <= 1.0))
    t.Experiments.rows

let test_fig4_structure () =
  let rows = Experiments.fig4 ~effort:tiny ~apps:[ Is.app ] () in
  match rows with
  | [ r ] ->
      Alcotest.(check int) "ranks" 2 r.f4_ranks;
      Alcotest.(check bool) "times positive" true
        (r.f4_untraced_s > 0.0 && r.f4_traced_s > 0.0);
      Alcotest.(check bool) "tracing costs something" true (r.f4_overhead > 0.0)
  | _ -> Alcotest.fail "expected one row"

let test_facade_inject_and_analyze () =
  let report =
    Fliptracker.inject_and_analyze Is.app
      (Helpers.flip_write ~seq:5_000 7)
  in
  (match report.Fliptracker.outcome with
  | Machine.Finished | Machine.Trapped _ | Machine.Budget_exceeded -> ());
  Alcotest.(check bool) "report printable" true
    (String.length (Fmt.str "%a" Fliptracker.pp_injection_report report) > 0)

let test_facade_measure_resilience () =
  let counts =
    Fliptracker.measure_resilience
      ~cfg:{ Campaign.default_config with max_trials = Some 10 }
      Is.app
  in
  Alcotest.(check int) "ten trials" 10 counts.Campaign.trials

let test_facade_pattern_rates () =
  let r = Fliptracker.pattern_rates Dc.app in
  Alcotest.(check bool) "DC shifts heavily" true (r.Rates.shift > 0.0)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "fig5 structure" `Slow test_fig5_structure;
      Alcotest.test_case "fig6 structure" `Slow test_fig6_structure;
      Alcotest.test_case "fig7 structure" `Slow test_fig7_structure;
      Alcotest.test_case "table1 structure" `Slow test_table1_structure;
      Alcotest.test_case "table2 monotone" `Slow test_table2_monotone;
      Alcotest.test_case "table2 bit argument" `Slow test_table2_bit_argument;
      Alcotest.test_case "table4 structure" `Slow test_table4_structure;
      Alcotest.test_case "fig4 structure" `Slow test_fig4_structure;
      Alcotest.test_case "facade inject+analyze" `Slow test_facade_inject_and_analyze;
      Alcotest.test_case "facade measure resilience" `Slow
        test_facade_measure_resilience;
      Alcotest.test_case "facade pattern rates" `Slow test_facade_pattern_rates;
    ] )
