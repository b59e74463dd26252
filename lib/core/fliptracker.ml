(** FlipTracker — fine-grained tracking of error propagation and
    natural resilience in HPC programs.

    This facade groups the library's subsystems and offers the one-call
    entry points most users need.  The full pipeline is:

    {v
    mini-C program --Compile--> IR --Machine(+Tracer)--> dynamic trace
        |                                                     |
        |  fault injection (Campaign)                         |
        v                                                     v
    faulty runs --Align/Acl--> alive-corrupted-location series
                                    |
                                    v
              resilience patterns (Pattern/Dynamic_detect)
                                    |
                                    v
              resilience prediction (Rates + Regression)
    v}

    Subsystem guide:
    {ul
    {- IR: {!Ty}, {!Value}, {!Loc}, {!Op}, {!Instr}, {!Prog}}
    {- language + compiler: {!Ast}, {!Compile}}
    {- execution: {!Machine}, {!Trace}}
    {- static analysis: {!Cfg}, {!Dataflow}, {!Reaching}, {!Liveness},
       {!Verify}, {!Vuln}}
    {- analyses: {!Region}, {!Access}, {!Align}, {!Acl}, {!Dddg},
       {!Tolerance}}
    {- fault injection: {!Rng}, {!Stats}, {!Campaign}}
    {- resilient execution: {!Csexp}, {!Journal}, {!Pool}, {!Executor},
       and {!Watchdog}'s worker deadlines for the campaign server}
    {- patterns: {!Pattern}, {!Static_detect}, {!Dynamic_detect},
       {!Rates}}
    {- prediction: {!Linalg}, {!Regression}}
    {- benchmarks: {!App}, {!Registry} and the ten program modules}
    {- simulated MPI: {!Comm}, {!Runner}, {!Demo}}
    {- experiment drivers: {!Experiments}, {!Effort}}} *)

(** Resolve an app name as every CLI subcommand does: a plain registry
    name finds the registered app (case-insensitively, with structured
    near-match suggestions on failure); ["NAME@SPEC"] — e.g.
    ["CG@all"] or ["mg@dup+fresh"] — builds the auto-hardened variant
    of [NAME] with the pass spec [SPEC] ([+] or [,] separated); and
    ["NAME@opt"] / ["NAME@opt:SPEC"] — e.g. ["IS@opt"] or
    ["cg@opt:fold+dce"] — builds the optimized variant under the
    analysis-gated optimizer pipeline.  Both kinds of variant run
    everywhere plain apps do. *)
let resolve_app (name : string) : (App.t, string) result =
  let lookup n =
    match Registry.find n with
    | a -> Ok a
    | exception Registry.Unknown_app { name; suggestions; known } ->
        Error
          (Printf.sprintf "unknown app %S%s\nknown apps: %s" name
             (match suggestions with
             | s :: _ -> Printf.sprintf " (did you mean %s?)" s
             | [] -> "")
             (String.concat ", " known))
  in
  match String.index_opt name '@' with
  | None -> lookup name
  | Some i -> (
      let base = String.sub name 0 i in
      let raw = String.sub name (i + 1) (String.length name - i - 1) in
      let opt_spec =
        if String.lowercase_ascii raw = "opt" then Some "all"
        else if
          String.length raw > 4
          && String.lowercase_ascii (String.sub raw 0 4) = "opt:"
        then Some (String.sub raw 4 (String.length raw - 4))
        else None
      in
      match opt_spec with
      | Some spec ->
          Result.bind (lookup base) (fun app ->
              Result.map
                (fun passes -> Opt.app_variant ~passes app)
                (Pass.parse_spec Opt.all spec))
      | None ->
          Result.bind (lookup base) (fun app ->
              Result.map
                (fun passes -> Harden.app_variant ~passes app)
                (Pass.parse_spec Passes.all raw)))

(** Everything known about one fault injected into one program. *)
type injection_report = {
  fault : Machine.fault;
  outcome : Machine.outcome;
  verified : bool;
  acl : Acl.result;
  patterns : Dynamic_detect.region_patterns list;
}

(** Run one fault injection against [app] with full analysis: outcome
    classification, the ACL series, and the resilience patterns
    observed, per region.  The faulty run is replayed, not stored. *)
let inject_and_analyze (app : App.t) (fault : Machine.fault) :
    injection_report =
  let clean, clean_trace = App.trace app in
  let budget = 10 * clean.Machine.instructions in
  let result, acl = Experiments.replay_acl app ~clean:clean_trace fault ~budget in
  {
    fault;
    outcome = result.Machine.outcome;
    verified = App.verified result.Machine.output;
    acl;
    patterns = Dynamic_detect.of_acl acl;
  }

(** Success rate of [app] under uniform whole-program injection, with
    the full execution provenance (planned vs completed trials, early
    stopping, resume, wall time).  [exec] selects the resilient
    executor's knobs: worker domains, journal + resume, early
    stopping. *)
let measure_resilience_report ?(cfg = Campaign.default_config)
    ?(exec = Campaign.default_exec) (app : App.t) : Campaign.run_report =
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  Campaign.run_report prog ~verify:(App.verify app)
    ~clean_instructions:clean.Machine.instructions ~cfg ~exec target

(** Success rate of [app] under uniform whole-program injection. *)
let measure_resilience ?(cfg = Campaign.default_config)
    ?(exec = Campaign.default_exec) (app : App.t) : Campaign.counts =
  (measure_resilience_report ~cfg ~exec app).Campaign.counts

(** The six pattern rates of [app] (features of the prediction model). *)
let pattern_rates (app : App.t) : Rates.t =
  let _, trace = App.trace app in
  Rates.compute trace (Access.build trace)

(** Pretty-print an injection report (for quick interactive use). *)
let pp_injection_report ppf (r : injection_report) =
  Fmt.pf ppf "@[<v>fault: %s@,outcome: %s, verified: %b@,"
    (Machine.fault_to_string r.fault)
    (match r.outcome with
    | Machine.Finished -> "finished"
    | Machine.Trapped m -> "crashed (" ^ m ^ ")"
    | Machine.Budget_exceeded -> "hung")
    r.verified;
  Fmt.pf ppf "ACL peak %d, %d deaths, %d maskings%s@,"
    r.acl.Acl.peak
    (List.length r.acl.Acl.deaths)
    (List.length r.acl.Acl.maskings)
    (match r.acl.Acl.divergence with
    | Some i -> Printf.sprintf ", control diverged at event %d" i
    | None -> "");
  List.iter
    (fun rp -> Fmt.pf ppf "%a@," Dynamic_detect.pp rp)
    r.patterns;
  Fmt.pf ppf "@]"
