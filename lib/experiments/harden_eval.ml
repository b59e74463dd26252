(* Paired baseline/hardened campaigns; see the mli. *)

type variant = {
  hv_label : string;
  hv_passes : string list;
  hv_static_instrs : int;
  hv_clean_instructions : int;
  hv_report : Campaign.run_report;
  hv_pass_reports : Pass.report list;
}

type report = {
  he_app : string;
  he_seed : int;
  he_variants : variant list;
}

let rate part (c : Campaign.counts) =
  if c.Campaign.trials = 0 then 0.0
  else float_of_int part /. float_of_int c.Campaign.trials

let sdc_rate (c : Campaign.counts) = rate c.Campaign.failed c
let crash_rate (c : Campaign.counts) = rate c.Campaign.crashed c

let run_variant ~label ~passes ~pass_reports ~verify ~cfg ~exec
    (prog : Prog.t) : variant =
  let t = Trace.create () in
  let iter_mark = Prog.mark_id prog App.iter_mark_name in
  let clean =
    Machine.run prog { Machine.default_config with trace = Some t; iter_mark }
  in
  (match clean.Machine.outcome with
  | Machine.Finished -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Harden_eval: %s fault-free run did not finish" label));
  let target = Campaign.whole_program_target prog t in
  let r =
    Campaign.run_report prog ~verify
      ~clean_instructions:clean.Machine.instructions ~cfg ~exec target
  in
  {
    hv_label = label;
    hv_passes = passes;
    hv_static_instrs = Prog.static_size prog;
    hv_clean_instructions = clean.Machine.instructions;
    hv_report = r;
    hv_pass_reports = pass_reports;
  }

let evaluate ?(effort = Effort.default) ?opts ?(passes = Passes.all)
    (app : App.t) : report =
  let baseline = App.program app in
  let verify = App.verify app in
  let cfg = effort.Effort.campaign in
  let exec = Effort.exec effort in
  (* transform everything first: a Verify_failed pass bug surfaces
     before any campaign time is spent *)
  let pipelines =
    List.map
      (fun (p : Pass.t) ->
        let prog, reps, _ = Pass.run_pipeline ?opts [ p ] baseline in
        ("+" ^ p.Pass.name, [ p.Pass.name ], prog, reps))
      passes
    @
    if List.length passes > 1 then
      let prog, reps, _ = Pass.run_pipeline ?opts passes baseline in
      [
        ( "all",
          List.map (fun (p : Pass.t) -> p.Pass.name) passes,
          prog,
          reps );
      ]
    else []
  in
  let variants =
    run_variant ~label:"baseline" ~passes:[] ~pass_reports:[] ~verify ~cfg
      ~exec baseline
    :: List.map
         (fun (label, names, prog, reps) ->
           run_variant ~label ~passes:names ~pass_reports:reps ~verify ~cfg
             ~exec prog)
         pipelines
  in
  { he_app = app.App.name; he_seed = cfg.Campaign.seed; he_variants = variants }

let overhead hardened base =
  if base = 0 then 0.0
  else (float_of_int hardened /. float_of_int base) -. 1.0

let pp_report ppf (r : report) =
  let base =
    match r.he_variants with
    | b :: _ -> b
    | [] -> invalid_arg "Harden_eval.pp_report: no variants"
  in
  let bc = base.hv_report.Campaign.counts in
  Fmt.pf ppf
    "@[<v>%s: paired whole-program campaigns (seed %d, %d trials planned \
     per variant)@,"
    r.he_app r.he_seed base.hv_report.Campaign.planned;
  Fmt.pf ppf
    "%-22s %6s %6s %6s %6s  %8s %8s  %9s %9s@,"
    "variant" "trials" "SDC" "crash" "benign" "SDCrate" "dSDC" "instrs"
    "overhead";
  List.iter
    (fun v ->
      let c = v.hv_report.Campaign.counts in
      Fmt.pf ppf "%-22s %6d %6d %6d %6d  %8.4f %+8.4f  %9d %8.1f%%@,"
        v.hv_label c.Campaign.trials c.Campaign.failed c.Campaign.crashed
        c.Campaign.success (sdc_rate c)
        (sdc_rate c -. sdc_rate bc)
        v.hv_clean_instructions
        (100.0 *. overhead v.hv_clean_instructions base.hv_clean_instructions))
    r.he_variants;
  Fmt.pf ppf "@,per-pass attribution (sites changed, guards inserted):@,";
  List.iter
    (fun v ->
      List.iter
        (fun (pr : Pass.report) ->
          Fmt.pf ppf "  %-22s %-18s %4d sites  +%5d instrs  %4d guard \
                      site(s)@,"
            v.hv_label pr.Pass.pass_name pr.Pass.sites_changed
            pr.Pass.instrs_added
            (List.length pr.Pass.protective))
        v.hv_pass_reports)
    (List.filter (fun v -> v.hv_pass_reports <> []) r.he_variants);
  Fmt.pf ppf "@]"

let to_csv (r : report) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "app,variant,passes,trials,success,sdc,crashed,infra,sdc_rate,\
     crash_rate,clean_instructions,static_instrs\n";
  List.iter
    (fun v ->
      let c = v.hv_report.Campaign.counts in
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%s,%d,%d,%d,%d,%d,%.6f,%.6f,%d,%d\n" r.he_app
           v.hv_label
           (String.concat "+" v.hv_passes)
           c.Campaign.trials c.Campaign.success c.Campaign.failed
           c.Campaign.crashed c.Campaign.infra (sdc_rate c) (crash_rate c)
           v.hv_clean_instructions v.hv_static_instrs))
    r.he_variants;
  Buffer.contents b
