(* The optimizer: fault-free identity of every pass on every study
   program, change-report sanity, fault-site map round-trips, the
   structured refusal of untranslatable reference-level sites, and the
   differential pin that the default campaign path is untouched. *)

let pass_names = List.map (fun (p : Pass.t) -> p.Pass.name) Opt.all

(* --- fault-free output identity ------------------------------------------ *)

let check_pass_identity (app : App.t) (passes : Pass.t list) label =
  let base = App.program app in
  match Opt.transform_checked passes base with
  | prog -> prog
  | exception Opt.Identity_failed { reason; _ } ->
      Alcotest.failf "%s: %s broke fault-free identity: %s" app.App.name
        label reason
  | exception Pass.Verify_failed { diags; _ } ->
      Alcotest.failf "%s: %s produced broken IR (%d error(s))" app.App.name
        label (List.length diags)

let test_identity_each_pass_alone () =
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (p : Pass.t) -> ignore (check_pass_identity app [ p ] p.Pass.name))
        Opt.all)
    Registry.all

(* Digest of the marshaled full-pipeline output per app (as
   [Compiled.digest] keys plans): any change to what the optimizer
   emits shows here *)
let all_digests =
  [
    ("CG", "c0fd80a3503ce627ce1b297e9fbd17c6");
    ("MG", "f2a7493e48f7d28e099948df1d8b3c69");
    ("LU", "a0a08f28815bc0a0fb29d4334a4f75da");
    ("BT", "2de33272315ba7a6090da635b1fc03bd");
    ("IS", "b379701269d4135c6351c1f77d605a64");
    ("DC", "3a2e9b7f218682980f78a6b290713290");
    ("SP", "021c833ba9873e3114c60c9c8e45fdf6");
    ("FT", "428e1718efffbb57d5dac095aa31a010");
    ("KMEANS", "f60794ecbd38a584cff0c2345f72a702");
    ("LULESH", "8eb70beb37d0493ac33858806f8a3714");
  ]

let test_identity_composed () =
  List.iter
    (fun (app : App.t) ->
      let prog = check_pass_identity app Opt.all "the full pipeline" in
      Alcotest.(check string)
        (app.App.name ^ "@opt program digest")
        (List.assoc app.App.name all_digests)
        (Digest.to_hex (Digest.string (Marshal.to_string prog []))))
    Registry.all

(* --- per-pass change reports --------------------------------------------- *)

let test_reports_sane () =
  let base = App.program (Registry.find "IS") in
  let prog, reports, map = Opt.optimize Opt.all base in
  Alcotest.(check bool) "something changed" true
    (List.exists (fun (r : Pass.report) -> r.Pass.sites_changed > 0) reports);
  List.iter
    (fun (r : Pass.report) ->
      Alcotest.(check bool)
        (r.Pass.pass_name ^ " is a known pass")
        true
        (List.mem r.Pass.pass_name pass_names);
      Alcotest.(check bool)
        (r.Pass.pass_name ^ " counts non-negative")
        true
        (r.Pass.sites_changed >= 0 && r.Pass.instrs_added >= 0
        && r.Pass.instrs_removed >= 0 && r.Pass.regs_added >= 0);
      Alcotest.(check int)
        (r.Pass.pass_name ^ " one change record per changed site")
        r.Pass.sites_changed
        (List.length r.Pass.changes))
    reports;
  (* the reports' instruction deltas account exactly for the shrink *)
  let net =
    List.fold_left
      (fun acc (r : Pass.report) ->
        acc + r.Pass.instrs_removed - r.Pass.instrs_added)
      0 reports
  in
  Alcotest.(check int) "report deltas = static shrink" net
    (Opt.static_instruction_count base - Opt.static_instruction_count prog);
  (* every reference pc either survives into the map or is deleted *)
  Alcotest.(check int) "sitemap covers the reference program"
    (Opt.static_instruction_count base)
    (Sitemap.surviving map + Sitemap.deleted map)

(* --- fault-site map round-trip ------------------------------------------- *)

let test_sitemap_roundtrip () =
  (* simplify + loop-hoist rewrite and insert but never delete, so the
     composed map is total: every reference seq translates, and the
     translated event is the same dynamic occurrence of the same
     (rewritten-in-place) instruction *)
  let app = Registry.find "IS" in
  let o = Opt.optimize_app ~passes:[ Opt.simp_pass; Opt.hoist_pass ] app in
  Alcotest.(check int) "total map: nothing deleted" 0
    (Sitemap.deleted o.Opt.o_sitemap);
  let map_seq = Opt.reference_seq_translation o in
  let _, ref_trace = App.trace app in
  let _, opt_trace = Machine.run_traced o.Opt.o_prog in
  let ref_prog = App.program app in
  let n = Trace.length ref_trace in
  let checked = ref 0 in
  let k = ref 0 in
  while !k < n do
    let e = Trace.get ref_trace !k in
    (match map_seq !k with
    | None -> Alcotest.failf "total map failed to translate seq %d" !k
    | Some k' ->
        let e' = Trace.get opt_trace k' in
        let fname = ref_prog.Prog.funcs.(e.Trace.fidx).Prog.fname in
        Alcotest.(check int) "same function" e.Trace.fidx e'.Trace.fidx;
        Alcotest.(check int) "image pc"
          (Sitemap.map_pc o.Opt.o_sitemap ~fname ~pc:e.Trace.pc)
          e'.Trace.pc;
        incr checked);
    k := !k + 997
  done;
  Alcotest.(check bool) "sampled a real spread" true (!checked > 50)

let test_reference_refusal () =
  (* deadcode deletes instructions, so whole-program reference-level
     sampling must refuse with the structured error, not re-sample *)
  let app = Registry.find "IS" in
  let o = Opt.optimize_app ~passes:Opt.all app in
  match
    Opt.reference_campaign
      ~cfg:{ Campaign.default_config with max_trials = Some 40 }
      o
  with
  | (_ : Campaign.run_report) ->
      Alcotest.fail "expected Untranslatable_site for a deleting pipeline"
  | exception Campaign.Untranslatable_site { seq; total; unmapped } ->
      Alcotest.(check bool) "refusal is populated" true
        (seq >= 0 && unmapped > 0 && total >= unmapped)

let test_reference_campaign_runs () =
  let app = Registry.find "IS" in
  let o = Opt.optimize_app ~passes:[ Opt.simp_pass; Opt.hoist_pass ] app in
  let r =
    Opt.reference_campaign
      ~cfg:{ Campaign.default_config with max_trials = Some 40 }
      o
  in
  Alcotest.(check int) "all trials classified" 40
    r.Campaign.counts.Campaign.trials

(* --- pass lookup ---------------------------------------------------------- *)

let test_unknown_pass_suggests () =
  match Pass.find_exn Opt.all "constfld" with
  | (_ : Pass.t) -> Alcotest.fail "expected Unknown_pass"
  | exception Pass.Unknown_pass { name; suggestions; known } ->
      Alcotest.(check string) "offending name" "constfld" name;
      Alcotest.(check bool) "did-you-mean constfold" true
        (List.mem "constfold" suggestions);
      Alcotest.(check (list string)) "known lists the canonical names"
        pass_names known

let test_parse_spec_canonical_order () =
  match Pass.parse_spec Opt.all "dce+fold" with
  | Error msg -> Alcotest.fail msg
  | Ok ps ->
      Alcotest.(check (list string)) "deduplicated, canonical order"
        [ "constfold"; "deadcode" ]
        (List.map (fun (p : Pass.t) -> p.Pass.name) ps)

(* --- differential pin: the default campaign path is untouched ------------ *)

let test_default_campaign_counts_pinned () =
  (* byte-identical to the historical CG campaign at 300 trials: the
     optimizer must not perturb campaigns that never opted into it *)
  let app = Registry.find "CG" in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  let c =
    Campaign.run prog ~verify:(App.verify app)
      ~clean_instructions:clean.Machine.instructions
      ~cfg:{ Campaign.default_config with max_trials = Some 300 }
      target
  in
  Alcotest.(check int) "success" 122 c.Campaign.success;
  Alcotest.(check int) "failed" 89 c.Campaign.failed;
  Alcotest.(check int) "crashed" 89 c.Campaign.crashed;
  Alcotest.(check int) "trials" 300 c.Campaign.trials

let suite =
  ( "opt",
    [
      Alcotest.test_case "identity: each pass alone, ten apps" `Slow
        test_identity_each_pass_alone;
      Alcotest.test_case "identity: full pipeline, ten apps" `Slow
        test_identity_composed;
      Alcotest.test_case "reports: sane and accounted" `Quick
        test_reports_sane;
      Alcotest.test_case "sitemap: round-trip on a total map" `Quick
        test_sitemap_roundtrip;
      Alcotest.test_case "sitemap: refusal on a deleting pipeline" `Quick
        test_reference_refusal;
      Alcotest.test_case "sitemap: reference campaign runs" `Quick
        test_reference_campaign_runs;
      Alcotest.test_case "lookup: unknown pass suggests" `Quick
        test_unknown_pass_suggests;
      Alcotest.test_case "lookup: spec canonical order" `Quick
        test_parse_spec_canonical_order;
      Alcotest.test_case "differential: default CG counts pinned" `Slow
        test_default_campaign_counts_pinned;
    ] )
