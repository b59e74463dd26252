(* The fliptracker command-line tool.

   Subcommands, all operating on the registered benchmark programs:

     list                         the registered programs and their regions
     trace APP                    run fault-free, save/split the trace
     inject APP --seq N --bit B   one fault, full analysis report
     campaign APP [--region R]    fault-injection campaign, success rate
     patterns APP                 mine resilience patterns per region
     rates APP                    the six pattern-rate features
     acl APP [--iter K]           ACL series of one injection, CSV/SVG export
     lint APP                     static IR verifier/linter diagnostics
     static-rank APP              static vulnerability ranking of regions
     harden APP [--passes P]      pattern-injection hardening, paired report
     optimize APP [--passes P]    analysis-gated IR optimization, pass report
     mpi-campaign APP [--drop P]  message-fault campaign over MPI bundles
     recovery-eval APP            fault-model x recovery-policy grid report
     arch-campaign APP            cross-structure (reg/cache/istore) campaigns

   Examples:
     fliptracker_cli list
     fliptracker_cli inject MG --seq 120000 --bit 40
     fliptracker_cli campaign CG --region cg_c --trials 200
     fliptracker_cli acl LULESH --out /tmp/lulesh *)

open Cmdliner

let app_arg =
  let doc =
    "Benchmark program (see `list'), or NAME@SPEC for an auto-hardened \
     variant, e.g. CG@all or mg@dup+fresh."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

(* the one shared lookup: registry names (case-insensitive, with
   near-match suggestions) plus NAME@SPEC auto-hardened variants *)
let find_app name =
  match Fliptracker.resolve_app name with
  | Ok app -> app
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

(* worker domains: refused below one, like a negative --trials *)
let check_jobs (cmd : string) (jobs : int) : unit =
  if jobs < 1 then begin
    Printf.eprintf "%s: --jobs %d is below 1\n" cmd jobs;
    exit 2
  end

(* enum-ish converters that answer a typo with the Registry's
   did-you-mean helper instead of a bare "invalid value" *)
let enumish_conv ~what ~candidates ~(of_string : string -> ('a, string) result)
    ~(to_string : 'a -> string) : 'a Arg.conv =
  let parse s =
    match of_string s with
    | Ok v -> Ok v
    | Error msg ->
        let sugg = Registry.suggest ~candidates s in
        Error
          (`Msg
            (Printf.sprintf "%s%s (known %s: %s)" msg
               (match sugg with
               | [] -> ""
               | l ->
                   Printf.sprintf "; did you mean %s?"
                     (String.concat " or " l))
               what
               (String.concat ", " candidates)))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (to_string v))

let fault_model_conv =
  enumish_conv ~what:"fault models" ~candidates:Fault_model.names
    ~of_string:Fault_model.of_string ~to_string:Fault_model.to_string

let recover_conv =
  enumish_conv ~what:"recovery policies" ~candidates:Campaign.recovery_names
    ~of_string:Campaign.recovery_of_string
    ~to_string:Campaign.recovery_to_string

let backend_conv =
  enumish_conv ~what:"execution backends" ~candidates:Backend.names
    ~of_string:(fun s ->
      match Backend.of_string s with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "unknown execution backend %S" s))
    ~to_string:Backend.to_string

let backend_arg =
  Arg.(value
       & opt backend_conv Backend.default
       & info [ "backend" ] ~docv:"B"
           ~doc:"Trial execution engine: $(b,compiled) (default; the \
                 closure-compiled non-tracing backend, bit-identical \
                 counts, several times faster) or $(b,interp) (the tracing \
                 interpreter).  Configurations the compiled backend cannot \
                 run (e.g. --recover rollback) fall back to the \
                 interpreter automatically.")

let structure_conv =
  enumish_conv ~what:"fault structures" ~candidates:Structure.names
    ~of_string:Structure.of_string ~to_string:Structure.to_string

let structure_arg =
  Arg.(value
       & opt structure_conv Structure.Reg
       & info [ "structure" ] ~docv:"S"
           ~doc:"Microarchitectural fault surface: $(b,reg) (default; the \
                 historical register-file stream, counts unchanged), \
                 $(b,cache-tag) (cache line metadata: tag/valid/dirty), \
                 $(b,cache-data) (cache data words), or $(b,istore) (bit \
                 flips in the binary instruction encoding).")

let geom_conv =
  let parse s =
    match Cache_model.geometry_of_string s with
    | Ok g -> Ok g
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf g -> Fmt.string ppf (Cache_model.geometry_to_string g))

let geom_arg =
  Arg.(value
       & opt geom_conv Cache_model.default_geometry
       & info [ "geom" ] ~docv:"SxWxL"
           ~doc:"Cache geometry for the cache-tag/cache-data surfaces as \
                 SETSxWAYSxLINE_WORDS, e.g. 16x2x4 (the default) or \
                 64x1x8 (direct-mapped).")

let fault_model_arg =
  Arg.(value
       & opt fault_model_conv Fault_model.Single_bit
       & info [ "fault-model" ] ~docv:"MODEL"
           ~doc:"Corruption model per injected fault: $(b,single-bit) \
                 (historical default), $(b,double-adjacent), $(b,burst-K) \
                 (random pattern in a K-bit window, 2 <= K <= 64), or \
                 $(b,stuck-at).")

let recover_arg =
  Arg.(value
       & opt recover_conv Campaign.No_recovery
       & info [ "recover" ] ~docv:"POLICY"
           ~doc:"Recovery policy: $(b,none) (default, historical \
                 behavior) or $(b,rollback:N) (checkpoint/rollback with \
                 an N-restore budget; plain $(b,rollback) uses the \
                 default budget).")

(* --- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (app : App.t) ->
        Printf.printf "%-10s %s\n" app.App.name app.App.description;
        Printf.printf "           regions: %s; %d main-loop iterations\n"
          (String.concat ", " app.App.region_names)
          app.App.main_iterations)
      (Registry.all @ Registry.cg_variants)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the registered benchmark programs.")
    Term.(const run $ const ())

(* --- trace ------------------------------------------------------------- *)

let format_arg =
  Arg.(value
       & opt (enum [ ("text", Trace_io.Text); ("binary", Trace_io.Binary) ])
           Trace_io.Text
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Trace encoding: $(b,text) (debuggable) or $(b,binary) \
                 (compact varint/delta codec).")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Print per-phase wall times, counters, and histograms at the \
               end (the observability report).")

let trace_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR"
           ~doc:"Directory to write the trace and its per-region split into.")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Stream events to the trace file as the program runs, never \
                 materializing the trace in memory (requires --out; the \
                 region split streams from the file in a second pass).")
  in
  let run name out format stream metrics =
    let app = find_app name in
    let obs = Obs.create () in
    let fmt_name =
      match format with Trace_io.Text -> "text" | Trace_io.Binary -> "binary"
    in
    (match (stream, out) with
    | true, None ->
        Printf.eprintf "trace: --stream requires --out DIR\n";
        exit 2
    | true, Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = Filename.concat dir (app.App.name ^ ".trace") in
        let prog = App.program app in
        let oc = open_out_bin path in
        let w = Trace_io.writer ~format oc in
        let r =
          Fun.protect
            ~finally:(fun () ->
              Trace_io.flush_writer w;
              close_out oc)
            (fun () ->
              Obs.phase obs "trace/run+encode" (fun () ->
                  Machine.run_sink ~iter_mark:(App.iter_mark app)
                    ~sink:(fun e -> Trace_io.write w e)
                    prog))
        in
        Obs.count obs "trace/events" (Trace_io.writer_events w);
        Obs.count obs "trace/bytes" (Trace_io.writer_bytes w);
        Printf.printf "%s: %d dynamic instructions, %d trace events\n"
          app.App.name r.Machine.instructions (Trace_io.writer_events w);
        Printf.printf "wrote %s (%s, %d bytes, streamed)\n" path fmt_name
          (Trace_io.writer_bytes w);
        let parts =
          Obs.phase obs "trace/split" (fun () ->
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () ->
                  Trace_io.split_seq ~dir ~prefix:app.App.name ~format
                    (Trace_io.events_of_channel ic)))
        in
        Printf.printf "wrote %d region-instance pieces under %s\n"
          (List.length parts) dir
    | false, _ -> (
        let r, t =
          Obs.phase obs "trace/run" (fun () -> App.trace app)
        in
        Obs.count obs "trace/events" (Trace.length t);
        Printf.printf "%s: %d dynamic instructions, %d trace events\n"
          app.App.name r.Machine.instructions (Trace.length t);
        List.iter
          (fun (inst : Region.instance) ->
            if inst.Region.number = 0 then
              Printf.printf "  region %d instance 0: %d events\n"
                inst.Region.rid (Region.size inst))
          (Region.instances t);
        match out with
        | None -> ()
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let path = Filename.concat dir (app.App.name ^ ".trace") in
            Obs.phase obs "trace/save" (fun () ->
                Trace_io.save ~format path t);
            Obs.count obs "trace/bytes" (Unix.stat path).Unix.st_size;
            let parts =
              Obs.phase obs "trace/split" (fun () ->
                  Trace_io.split_seq ~dir ~prefix:app.App.name ~format
                    (Trace.to_seq t))
            in
            Printf.printf
              "wrote %s (%s, %d bytes) and %d region-instance pieces under \
               %s\n"
              path fmt_name (Unix.stat path).Unix.st_size (List.length parts)
              dir));
    if metrics then print_string (Obs.report obs)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run fault-free and optionally save/split the trace.")
    Term.(const run $ app_arg $ out $ format_arg $ stream $ metrics_arg)

(* --- inject ------------------------------------------------------------ *)

(* the fault-free run's events at [seq]: the instruction's own and, for
   a call, the return-value write that follows the callee's events *)
let clean_events (app : App.t) (seq : int) : Trace.event list =
  let events = ref [] in
  let sink (e : Trace.event) =
    if e.Trace.seq = seq then events := e :: !events
    else if e.Trace.seq > seq then
      (* past [seq]: done, unless a call made at [seq] has not returned *)
      match List.rev !events with
      | { Trace.op = Trace.OCall; act; _ } :: _ when e.Trace.act <> act -> ()
      | _ -> raise Exit
  in
  (try
     ignore
       (Machine.run_sink ~iter_mark:(App.iter_mark app) ~sink
          (App.program app))
   with Exit -> ());
  List.rev !events

let inject_cmd =
  let seq =
    Arg.(value & opt int 10_000 & info [ "seq" ] ~docv:"N"
           ~doc:"Dynamic instruction to corrupt.")
  in
  let bit =
    Arg.(value & opt int 40 & info [ "bit" ] ~docv:"B" ~doc:"Bit to flip (0-63).")
  in
  let run name seq bit =
    let app = find_app name in
    let corruption =
      match Machine.flip bit with
      | c -> c
      | exception Invalid_argument _ ->
          Printf.eprintf "inject: --bit %d is out of range (0-63)\n" bit;
          exit 2
    in
    (* a seq the fault-free run never reaches leaves the fault unfired *)
    let n = (App.reference app).Machine.instructions in
    if seq < 0 || seq >= n then begin
      Printf.eprintf
        "inject: --seq %d is out of range: %s runs %d instructions \
         fault-free\n"
        seq app.App.name n;
      exit 2
    end;
    (* a Write fault fires only on an instruction that writes *)
    (match clean_events app seq with
    | first :: _ as events
      when List.for_all (fun e -> Array.length e.Trace.writes = 0) events ->
        Fmt.epr
          "inject: --seq %d writes nothing: the fault-free run's instruction \
           %d in %s is %a, so the fault would never fire@."
          seq seq app.App.name Trace.pp_opclass first.Trace.op;
        exit 2
    | _ -> ());
    let report =
      Fliptracker.inject_and_analyze app (Machine.Write { seq; corruption })
    in
    Fmt.pr "%a@." Fliptracker.pp_injection_report report
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Inject one bit flip and print the full analysis.")
    Term.(const run $ app_arg $ seq $ bit)

(* --- campaign ----------------------------------------------------------- *)

let campaign_cmd =
  let region =
    Arg.(value & opt (some string) None & info [ "region" ] ~docv:"R"
           ~doc:"Restrict to one code region (first instance), e.g. cg_c.")
  in
  let kind =
    Arg.(value & opt (enum [ ("internal", `Internal); ("input", `Input) ])
           `Internal
         & info [ "kind" ] ~doc:"Injection target kind for --region.")
  in
  let func =
    Arg.(value & opt (some string) None & info [ "function" ] ~docv:"F"
           ~doc:"Restrict to the dynamic instructions of one function.")
  in
  let memory_during =
    Arg.(value & opt (some string) None & info [ "memory-during" ] ~docv:"F"
           ~doc:"Soft errors in the memory of --vars while function $(docv) \
                 executes (the Use Case 1 scenario).")
  in
  let vars =
    Arg.(value & opt (list string) [] & info [ "vars" ] ~docv:"V1,V2"
           ~doc:"Comma-separated global variables for --memory-during.")
  in
  let trials =
    Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N"
           ~doc:"Number of injections (default: statistical design, capped).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains. Counts are identical for any value.")
  in
  let journal =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"Append each completed trial to this on-disk journal \
                 (csexp, fsync'd in batches).")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume from --journal, skipping already-journaled trials.")
  in
  let early_stop =
    Arg.(value & flag & info [ "early-stop" ]
           ~doc:"Stop once the Wilson interval on the success rate is within \
                 the statistical design's margin.")
  in
  let opt_spec =
    Arg.(value & opt (some string) None & info [ "opt" ] ~docv:"SPEC"
           ~doc:"Run the campaign on the optimized program: $(b,all) or a \
                 comma-separated optimizer pass list (see `optimize'). \
                 Equivalent to the NAME@opt app spelling, plus it unlocks \
                 $(b,--site-level reference).")
  in
  let site_level =
    Arg.(value
         & opt (enum [ ("native", Campaign.Native);
                       ("reference", Campaign.Reference) ])
             Campaign.Native
         & info [ "site-level" ] ~docv:"L"
             ~doc:"Where fault sites are sampled: $(b,native) (default) \
                   samples from the trace of the program being injected; \
                   $(b,reference) samples from the unoptimized reference \
                   trace and translates each site through the optimizer's \
                   site map (requires $(b,--opt); refuses if a sampled \
                   site's instruction was deleted).")
  in
  let run name region kind func memory_during vars trials seed jobs journal
      resume early_stop model recovery metrics opt_spec site_level
      backend structure geom =
    let base_app = find_app name in
    (match trials with
    | Some n when n < 0 ->
        Printf.eprintf "campaign: --trials %d is negative\n" n;
        exit 2
    | Some _ | None -> ());
    check_jobs "campaign" jobs;
    if
      structure <> Structure.Reg
      && (region <> None || func <> None || memory_during <> None
         || site_level = Campaign.Reference)
    then begin
      Printf.eprintf
        "--structure %s is a whole-program surface: it excludes --region, \
         --function, --memory-during and --site-level reference\n"
        (Structure.to_string structure);
      exit 2
    end;
    let opt_passes =
      match opt_spec with
      | None -> None
      | Some spec -> (
          match Pass.parse_spec Opt.all spec with
          | Ok ps -> Some ps
          | Error msg ->
              Printf.eprintf "campaign: %s\n" msg;
              exit 2)
    in
    let app =
      match opt_passes with
      | Some ps -> Opt.app_variant ~passes:ps base_app
      | None -> base_app
    in
    let obs = Obs.create () in
    let cfg =
      {
        Campaign.default_config with
        seed;
        max_trials = (match trials with Some _ -> trials | None -> Some 500);
        model;
        recovery;
        structure;
      }
    in
    let progress (p : Executor.progress) =
      Printf.eprintf "\rcampaign: %d/%d trials (%.0f%%), %.1fs elapsed, eta %.1fs   "
        p.Executor.completed p.Executor.planned
        (100.0 *. Float.of_int p.Executor.completed
        /. Float.of_int (max 1 p.Executor.planned))
        p.Executor.elapsed_s p.Executor.eta_s;
      if p.Executor.completed >= p.Executor.planned then prerr_newline ();
      flush stderr
    in
    let exec =
      {
        Campaign.default_exec with
        jobs;
        journal;
        resume;
        early_stop;
        on_progress = Some progress;
        metrics = (if metrics then Some obs else None);
        backend;
      }
    in
    let run_native () =
      let clean, trace =
        Obs.phase obs "campaign/trace-clean" (fun () -> App.trace app)
      in
      let prog = App.program app in
      let target =
        try
          match (region, func, memory_during) with
          | Some _, Some _, _ | Some _, _, Some _ | _, Some _, Some _ ->
              Printf.eprintf
                "--region, --function and --memory-during are exclusive\n";
              exit 2
          | None, Some fname, None -> Campaign.function_target prog trace fname
          | None, None, Some fname ->
              if vars = [] then begin
                Printf.eprintf "--memory-during needs --vars\n";
                exit 2
              end;
              Campaign.memory_during_function_target prog trace ~fname ~vars
          | None, None, None ->
              (* Structure.Reg reduces to whole_program_target *)
              Campaign.structure_target ~geom structure prog trace
                ~clean_instructions:clean.Machine.instructions
          | Some rname, None, None -> (
              let rid = (Prog.region_by_name prog rname).Prog.rid in
              match Region.find_instance trace ~rid ~number:0 with
              | None ->
                  Printf.eprintf "region %s has no instance\n" rname;
                  exit 2
              | Some inst -> (
                  match kind with
                  | `Internal -> Campaign.internal_target prog trace inst
                  | `Input ->
                      Campaign.input_target prog trace (Access.build trace)
                        inst))
        with Campaign.Unknown_symbol { name; available } ->
          (* structured error: actionable message, no backtrace *)
          Printf.eprintf "unknown symbol %S in --vars\navailable symbols: %s\n"
            name
            (String.concat ", " available);
          exit 2
      in
      Campaign.run_report prog ~verify:(App.verify app)
        ~clean_instructions:clean.Machine.instructions ~cfg ~exec target
    in
    let r =
      match site_level with
      | Campaign.Reference -> (
          (* sites sampled on the unoptimized reference, translated
             through the optimizer's composed site map *)
          let passes =
            match opt_passes with
            | Some ps -> ps
            | None ->
                Printf.eprintf
                  "--site-level reference needs --opt: sites are sampled \
                   on the reference program and translated through the \
                   optimizer's site map\n";
                exit 2
          in
          if region <> None || func <> None || memory_during <> None then begin
            Printf.eprintf
              "--site-level reference supports whole-program campaigns \
               only\n";
            exit 2
          end;
          let o =
            Obs.phase obs "campaign/optimize" (fun () ->
                Opt.optimize_app ~passes base_app)
          in
          match Opt.reference_campaign ~cfg ~exec o with
          | r -> r
          | exception Campaign.Untranslatable_site { seq; total; unmapped } ->
              Printf.eprintf
                "reference site (dynamic seq %d) was deleted by the \
                 pipeline: %d of %d sampled sites have no image in the \
                 optimized program\nuse --site-level native, or only \
                 passes whose site maps are total\n"
                seq unmapped total;
              exit 1)
      | Campaign.Native -> run_native ()
    in
    prerr_newline ();
    let counts = r.Campaign.counts in
    let lo, hi =
      Stats.wilson_interval ~successes:counts.Campaign.success
        ~trials:counts.Campaign.trials ~confidence:0.95
    in
    Fmt.pr "%a@." Campaign.pp_counts counts;
    if r.Campaign.stopped_early then
      Printf.printf
        "stopped early at %d of %d planned trials (Wilson interval within \
         the %.0f%%/%.0f%% design)\n"
        (counts.Campaign.trials + counts.Campaign.infra)
        r.Campaign.planned (100.0 *. cfg.Campaign.confidence)
        (100.0 *. cfg.Campaign.margin);
    if r.Campaign.resumed > 0 then
      Printf.printf "resumed %d journaled trials\n" r.Campaign.resumed;
    Printf.printf "95%% Wilson interval on the success rate: [%.3f, %.3f]\n" lo hi;
    if metrics then print_string (Obs.report obs)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a fault-injection campaign on the resilient executor \
          (parallel workers, journal + resume, early stopping).")
    Term.(const run $ app_arg $ region $ kind $ func $ memory_during $ vars
          $ trials $ seed $ jobs $ journal $ resume $ early_stop
          $ fault_model_arg $ recover_arg $ metrics_arg $ opt_spec
          $ site_level $ backend_arg $ structure_arg $ geom_arg)

(* --- patterns ------------------------------------------------------------ *)

let patterns_cmd =
  let injections =
    Arg.(value & opt int 6 & info [ "injections"; "n" ]
           ~doc:"Analyzed injections per region.")
  in
  let run name injections =
    let app = find_app name in
    let effort =
      { Effort.default with Effort.acl_injections = injections }
    in
    List.iter
      (fun (r : Experiments.table1_row) ->
        let lo, hi = r.Experiments.t1_lines in
        Printf.printf "%-8s lines %4d-%-5d %8d instr/instance\n"
          r.Experiments.t1_region lo hi r.Experiments.t1_instr_per_iter;
        List.iter
          (fun (p, n) ->
            if n > 0 then
              Printf.printf "    %-28s %6d instances\n" (Pattern.describe p) n)
          r.Experiments.t1_counts)
      (Experiments.table1 ~effort app)
  in
  Cmd.v
    (Cmd.info "patterns" ~doc:"Mine resilience computation patterns per region.")
    Term.(const run $ app_arg $ injections)

(* --- rates ---------------------------------------------------------------- *)

let rates_cmd =
  let run name =
    let app = find_app name in
    let rates = Fliptracker.pattern_rates app in
    let v = Rates.to_vector rates in
    Array.iteri
      (fun i x -> Printf.printf "%-18s %10.6f\n" Rates.feature_names.(i) x)
      v
  in
  Cmd.v
    (Cmd.info "rates" ~doc:"Print the six pattern-rate features of a program.")
    Term.(const run $ app_arg)

(* --- acl ------------------------------------------------------------------ *)

let acl_cmd =
  let iter =
    Arg.(value & opt int (-3) & info [ "iter" ] ~docv:"K"
           ~doc:"Main-loop iteration to inject into (negative = from the end).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"PREFIX"
           ~doc:"Write PREFIX.csv, PREFIX-events.csv and PREFIX.svg.")
  in
  let run name iter out =
    let app = find_app name in
    let s = Experiments.fig7 ~target_iter:iter app in
    let acl = s.Experiments.as_result in
    Printf.printf "ACL peak %d, %d deaths, %d maskings, %d change points%s\n"
      acl.Acl.peak
      (List.length acl.Acl.deaths)
      (List.length acl.Acl.maskings)
      (Array.length acl.Acl.series)
      (match acl.Acl.divergence with
      | Some i -> Printf.sprintf ", diverged at %d" i
      | None -> "");
    match out with
    | None -> ()
    | Some prefix ->
        Export.write_file (prefix ^ ".csv") (Export.acl_to_csv acl);
        Export.write_file (prefix ^ "-events.csv") (Export.events_to_csv acl);
        Export.write_file (prefix ^ ".svg")
          (Export.series_to_svg
             ~title:(Printf.sprintf "%s: alive corrupted locations" app.App.name)
             acl.Acl.series);
        Printf.printf "wrote %s.csv, %s-events.csv, %s.svg\n" prefix prefix prefix
  in
  Cmd.v
    (Cmd.info "acl" ~doc:"ACL time series of one injection, with CSV/SVG export.")
    Term.(const run $ app_arg $ iter $ out)

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the diagnostics as CSV.")
  in
  let warn =
    Arg.(value & flag & info [ "warnings"; "w" ]
           ~doc:"Include warnings (default: only the summary mentions them).")
  in
  let run name csv warn =
    let app = find_app name in
    let ds = Verify.verify (App.program app) in
    if csv then
      print_string
        (Verify.to_csv (if warn then ds else Verify.errors ds))
    else begin
      let shown = if warn then ds else Verify.errors ds in
      List.iter (fun d -> Fmt.pr "%a@." Verify.pp_diag d) shown;
      Printf.printf "%s: %d errors, %d warnings\n" app.App.name
        (List.length (Verify.errors ds))
        (List.length (Verify.warnings ds))
    end;
    if not (Verify.ok ds) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static IR verifier (structural, control-flow, dataflow \
          and calling-convention checks); exit 1 on errors.")
    Term.(const run $ app_arg $ csv $ warn)

(* --- static-rank ---------------------------------------------------------- *)

let static_rank_cmd =
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the ranking as CSV.")
  in
  let run name csv =
    let app = find_app name in
    let ranking = Static_detect.static_rank (App.program app) in
    if csv then print_string (Vuln.to_csv ranking)
    else Fmt.pr "@[<v>%a@]@." Vuln.pp_ranking ranking
  in
  Cmd.v
    (Cmd.info "static-rank"
       ~doc:
         "Rank the program's code regions by static vulnerability: mean \
          live registers and memory words per instruction, discounted by \
          the density of protective pattern sites.")
    Term.(const run $ app_arg $ csv)

(* --- harden ---------------------------------------------------------------- *)

let harden_cmd =
  let passes_arg =
    Arg.(value & opt string "all" & info [ "passes" ] ~docv:"SPEC"
           ~doc:"Pass spec: $(b,all), or a ','/'+'-separated list of pass \
                 names / short aliases (duplicate-compare/dup, \
                 accumulator-guard/acc, trunc-barrier/trunc, \
                 overwrite-fresh/fresh).")
  in
  let top_k =
    Arg.(value & opt int Pass.default_opts.Pass.top_k
         & info [ "top-k" ] ~docv:"K"
             ~doc:"Regions from the top of the static vulnerability \
                   ranking that duplicate-compare instruments.")
  in
  let report =
    Arg.(value & flag & info [ "report" ]
           ~doc:"Run paired baseline/hardened campaigns (baseline, each \
                 pass alone, all passes) and print the Table-III-style \
                 resilience report.")
  in
  let emit_ir =
    Arg.(value & opt (some string) None & info [ "emit-ir" ] ~docv:"PATH"
           ~doc:"Write the transformed program's IR listing to $(docv) \
                 ($(b,-) for stdout).")
  in
  let trials =
    Arg.(value & opt int 300 & info [ "trials" ] ~docv:"N"
           ~doc:"Campaign trials per variant for --report.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ]
           ~doc:"Campaign RNG seed for --report (shared across variants: \
                 the campaigns are paired).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ]
           ~doc:"Emit the --report campaign table as CSV.")
  in
  let run name spec top_k report emit_ir trials seed csv =
    let app = find_app name in
    let passes =
      match Pass.parse_spec Passes.all spec with
      | Ok ps -> ps
      | Error msg ->
          Printf.eprintf "harden: %s\n" msg;
          exit 2
    in
    let opts = { Pass.top_k } in
    let baseline = App.program app in
    let hardened, reports, _ =
      try Pass.run_pipeline ~opts passes baseline
      with Pass.Verify_failed { passes; diags } ->
        Printf.eprintf
          "harden: pipeline [%s] produced broken IR (%d error \
           diagnostic(s)):\n"
          (String.concat "; " passes)
          (List.length diags);
        List.iter (fun d -> Fmt.epr "  %a@." Verify.pp_diag d) diags;
        exit 1
    in
    Printf.printf "%s: %d -> %d static instructions (%s)\n" app.App.name
      (Prog.static_size baseline)
      (Prog.static_size hardened)
      (Pass.spec_names Passes.all passes);
    List.iter (fun r -> Fmt.pr "@[<v>%a@]@." Pass.pp_report r) reports;
    print_string "post-harden static ranking (guards counted as \
                  protective):\n";
    List.iteri
      (fun i s ->
        if i < 5 then
          Fmt.pr "%2d. %a@." (i + 1) Vuln.pp_score s)
      (Harden.ranking_after hardened reports);
    (match emit_ir with
    | None -> ()
    | Some "-" -> Fmt.pr "%a@." Prog.pp hardened
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let ppf = Format.formatter_of_out_channel oc in
            Fmt.pf ppf "%a@." Prog.pp hardened);
        Printf.printf "wrote IR listing to %s\n" path);
    if report then begin
      let effort =
        {
          Effort.quick with
          Effort.campaign =
            {
              Campaign.default_config with
              seed;
              max_trials = Some trials;
            };
        }
      in
      let r = Harden_eval.evaluate ~effort ~opts ~passes app in
      if csv then print_string (Harden_eval.to_csv r)
      else Fmt.pr "@[<v>%a@]@." Harden_eval.pp_report r
    end
  in
  Cmd.v
    (Cmd.info "harden"
       ~doc:
         "Automatically harden a program with the pattern-injection \
          passes (verified IR out), and optionally measure the \
          resilience delta with paired campaigns.")
    Term.(const run $ app_arg $ passes_arg $ top_k $ report $ emit_ir
          $ trials $ seed $ csv)

(* --- optimize -------------------------------------------------------------- *)

let optimize_cmd =
  let passes_arg =
    Arg.(value & opt string "all" & info [ "passes" ] ~docv:"SPEC"
           ~doc:"Pass spec: $(b,all), or a ','/'+'-separated list of pass \
                 names / short aliases (constfold/fold, simplify/simp, \
                 local-cse/cse, redundant-load-elim/rle, copyprop/copy, \
                 scalar-promote/promote, loop-hoist/hoist, coalesce/coal, \
                 deadcode/dce).")
  in
  let rounds =
    Arg.(value & opt int 4 & info [ "rounds" ] ~docv:"N"
           ~doc:"Iterate the whole pass list up to $(docv) times, stopping \
                 early once a round changes nothing.")
  in
  let emit_ir =
    Arg.(value & opt (some string) None & info [ "emit-ir" ] ~docv:"PATH"
           ~doc:"Write the optimized program's IR listing to $(docv) \
                 ($(b,-) for stdout).")
  in
  let run name spec rounds emit_ir =
    let app = find_app name in
    let passes =
      match Pass.parse_spec Opt.all spec with
      | Ok ps -> ps
      | Error msg ->
          Printf.eprintf "optimize: %s\n" msg;
          exit 2
    in
    let base = App.program app in
    let prog, reports, map =
      try Opt.optimize ~rounds passes base
      with Pass.Verify_failed { passes; diags } ->
        Printf.eprintf
          "optimize: pipeline [%s] produced broken IR (%d error \
           diagnostic(s)):\n"
          (String.concat "; " passes)
          (List.length diags);
        List.iter (fun d -> Fmt.epr "  %a@." Verify.pp_diag d) diags;
        exit 1
    in
    (try
       Opt.check_identity
         ~passes:(List.map (fun (p : Pass.t) -> p.Pass.name) passes)
         ~base ~opt:prog
     with Opt.Identity_failed { passes; reason } ->
       Printf.eprintf
         "optimize: pipeline [%s] changed fault-free behavior: %s\n"
         (String.concat "; " passes)
         reason;
       exit 1);
    Fmt.pr "%a" Opt.pp_reports reports;
    let rb = Machine.run_plain base and ro = Machine.run_plain prog in
    Printf.printf
      "%s (%s): static %d -> %d instructions, dynamic %d -> %d (%.2fx \
       fewer), %d pcs deleted, fault-free identity OK\n"
      app.App.name
      (Opt.spec_names passes)
      (Opt.static_instruction_count base)
      (Opt.static_instruction_count prog)
      rb.Machine.instructions ro.Machine.instructions
      (float_of_int rb.Machine.instructions
      /. float_of_int (max 1 ro.Machine.instructions))
      (Sitemap.deleted map);
    match emit_ir with
    | None -> ()
    | Some "-" -> Fmt.pr "%a@." Prog.pp prog
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let ppf = Format.formatter_of_out_channel oc in
            Fmt.pf ppf "%a@." Prog.pp prog);
        Printf.printf "wrote IR listing to %s\n" path
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Optimize a program with the dataflow-driven pass pipeline \
          (every rewrite justified by a static analysis, gated by the IR \
          verifier and a fault-free output-identity check) and print the \
          per-pass change reports.")
    Term.(const run $ app_arg $ passes_arg $ rounds $ emit_ir)

(* --- mpi-campaign ---------------------------------------------------------- *)

let mpi_campaign_cmd =
  let size =
    Arg.(value & opt int 2 & info [ "size" ] ~docv:"N"
           ~doc:"Simulated MPI ranks per bundle.")
  in
  let trials =
    Arg.(value & opt int 8 & info [ "trials" ] ~docv:"N"
           ~doc:"Bundles to run (each is one $(b,--size)-rank execution).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.")
  in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~docv:"P"
           ~doc:"Per-message drop probability.")
  in
  let corrupt =
    Arg.(value & opt float 0.0 & info [ "corrupt" ] ~docv:"P"
           ~doc:"Per-message payload bit-corruption probability.")
  in
  let duplicate =
    Arg.(value & opt float 0.0 & info [ "duplicate" ] ~docv:"P"
           ~doc:"Per-message duplicate-delivery probability.")
  in
  let reliable =
    Arg.(value & flag & info [ "reliable" ]
           ~doc:"Use the reliable transport (checksums, receiver-driven \
                 resend, duplicate suppression) instead of the raw one.")
  in
  let recv_timeout =
    Arg.(value & opt float 1.0 & info [ "recv-timeout" ] ~docv:"S"
           ~doc:"Per-receive wall-clock deadline in seconds; a receive \
                 that exceeds it raises a structured Comm_error instead \
                 of hanging the bundle.")
  in
  let require_resend =
    Arg.(value & flag & info [ "require-resend" ]
           ~doc:"Exit 1 unless at least one dropped/corrupted message was \
                 recovered by retransmission (the CI proof that the \
                 resend path actually fired).")
  in
  let max_crashed =
    Arg.(value & opt (some int) None & info [ "max-crashed" ] ~docv:"N"
           ~doc:"Exit 1 if more than $(docv) bundles crash.")
  in
  let run name size trials seed drop corrupt duplicate reliable recv_timeout
      recovery require_resend max_crashed =
    let app = find_app name in
    let prog = Recovery_eval.wrapped_program app in
    let clean = Machine.run prog Machine.default_config in
    (match clean.Machine.outcome with
    | Machine.Finished -> ()
    | _ ->
        Printf.eprintf "mpi-campaign: fault-free run did not finish\n";
        exit 2);
    let budget =
      Campaign.default_config.Campaign.budget_factor
      * clean.Machine.instructions
    in
    let recover = Campaign.machine_recover recovery in
    let counts = ref Campaign.zero_counts in
    let dropped = ref 0 and corrupted = ref 0 and duplicated = ref 0 in
    let resent = ref 0 in
    for i = 0 to trials - 1 do
      let faults =
        {
          Comm.seed = (seed * 8191) + (1009 * i);
          drop_p = drop;
          corrupt_p = corrupt;
          dup_p = duplicate;
        }
      in
      let b =
        Runner.run ~size ~faults ~reliable ~recv_timeout_s:recv_timeout
          ?recover ~budget prog
      in
      let s = b.Runner.comm_stats in
      dropped := !dropped + s.Comm.dropped;
      corrupted := !corrupted + s.Comm.corrupted;
      duplicated := !duplicated + s.Comm.duplicated;
      resent := !resent + s.Comm.resent;
      counts :=
        Campaign.add_outcome !counts
          (Runner.classify ~verify:(App.verify app) b)
    done;
    let c = !counts in
    Printf.printf
      "%s x %d bundles at size %d (%s transport, recover %s):\n"
      app.App.name trials size
      (if reliable then "reliable" else "raw")
      (Campaign.recovery_to_string recovery);
    Fmt.pr "%a@." Campaign.pp_counts c;
    Printf.printf
      "transport: %d dropped, %d corrupted, %d duplicated, %d resent\n"
      !dropped !corrupted !duplicated !resent;
    if require_resend && !resent = 0 then begin
      Printf.eprintf
        "mpi-campaign: --require-resend, but no message was retransmitted\n";
      exit 1
    end;
    match max_crashed with
    | Some n when c.Campaign.crashed > n ->
        Printf.eprintf "mpi-campaign: %d bundles crashed (max allowed %d)\n"
          c.Campaign.crashed n;
        exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "mpi-campaign"
       ~doc:
         "Run a message-fault campaign over simulated MPI bundles: the \
          transport drops/corrupts/duplicates payloads under a derived \
          RNG stream, receives time out instead of hanging, and the \
          reliable transport recovers by retransmission.")
    Term.(const run $ app_arg $ size $ trials $ seed $ drop $ corrupt
          $ duplicate $ reliable $ recv_timeout $ recover_arg
          $ require_resend $ max_crashed)

(* --- recovery-eval --------------------------------------------------------- *)

let recovery_eval_cmd =
  let size =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"N"
           ~doc:"MPI ranks for the parallel cells.")
  in
  let serial_trials =
    Arg.(value & opt int 120 & info [ "serial-trials" ] ~docv:"N"
           ~doc:"Trials per serial cell.")
  in
  let mpi_trials =
    Arg.(value & opt int 40 & info [ "mpi-trials" ] ~docv:"N"
           ~doc:"Bundles per parallel cell.")
  in
  let msg_trials =
    Arg.(value & opt int 12 & info [ "msg-trials" ] ~docv:"N"
           ~doc:"Bundles per message-fault cell.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.")
  in
  let models =
    Arg.(value
         & opt (list fault_model_conv) Recovery_eval.default_models
         & info [ "models" ] ~docv:"M1,M2"
             ~doc:"Comma-separated fault models to compare.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the report as CSV.")
  in
  let run name size serial_trials mpi_trials msg_trials seed models csv =
    let app = find_app name in
    let r =
      Recovery_eval.evaluate ~seed ~models ~size ~serial_trials ~mpi_trials
        ~msg_trials app
    in
    if csv then print_string (Recovery_eval.to_csv r)
    else Fmt.pr "@[<v>%a@]@." Recovery_eval.pp_report r
  in
  Cmd.v
    (Cmd.info "recovery-eval"
       ~doc:
         "Paired recovery campaigns: every fault model x recovery policy, \
          serial vs. MPI bundles of the same (ring-exchange wrapped) \
          program, plus raw-vs-reliable transport under message faults.")
    Term.(const run $ app_arg $ size $ serial_trials $ mpi_trials
          $ msg_trials $ seed $ models $ csv)

(* --- arch-campaign --------------------------------------------------------- *)

let arch_campaign_cmd =
  let trials =
    Arg.(value & opt int 150 & info [ "trials" ] ~docv:"N"
           ~doc:"Injections per structure.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains. Counts are identical for any value.")
  in
  let structures =
    Arg.(value
         & opt (list structure_conv) Structure.all
         & info [ "structures" ] ~docv:"S1,S2"
             ~doc:"Comma-separated fault surfaces to compare (default: all \
                   of reg, cache-tag, cache-data, istore).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the report as CSV.")
  in
  let run name trials seed jobs structures geom backend csv =
    let app = find_app name in
    check_jobs "arch-campaign" jobs;
    let r =
      Arch_eval.evaluate ~seed ~trials ~structures ~geom ~backend ~jobs app
    in
    if csv then print_string (Arch_eval.to_csv r)
    else Fmt.pr "@[<v>%a@]@." Arch_eval.pp_report r
  in
  Cmd.v
    (Cmd.info "arch-campaign"
       ~doc:
         "Cross-structure fault campaigns: inject the same program through \
          every microarchitectural surface (register file, cache metadata, \
          cache data, instruction store) under one seed and compare the \
          per-structure SDC/crash/recovery profiles.")
    Term.(const run $ app_arg $ trials $ seed $ jobs $ structures $ geom_arg
          $ backend_arg $ csv)

(* --- the campaign service (serve / submit / status / shutdown) ---------- *)

let socket_arg =
  Arg.(value & opt string "/tmp/fliptracker.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of the campaign server.")

let serve_cmd =
  let workers =
    Arg.(value & opt int Server.default_config.Server.workers
         & info [ "workers" ] ~docv:"N" ~doc:"Forked worker processes.")
  in
  let batch =
    Arg.(value & opt int Server.default_config.Server.batch
         & info [ "batch" ] ~docv:"N" ~doc:"Trials per lease.")
  in
  let shards =
    Arg.(value & opt int Server.default_config.Server.shards
         & info [ "shards" ] ~docv:"N" ~doc:"Journal shards per campaign.")
  in
  let journal_dir =
    Arg.(value & opt (some string) None & info [ "journal-dir" ] ~docv:"DIR"
           ~doc:"Root directory for per-campaign sharded journals; an \
                 interrupted campaign resubmitted later resumes from here.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Content-addressed cache of baked programs and golden runs \
                 (campaigns warm-start across server restarts).")
  in
  let heartbeat =
    Arg.(value & opt float Server.default_config.Server.heartbeat_s
         & info [ "heartbeat" ] ~docv:"S"
             ~doc:"Worker lease deadline: a leased worker silent for $(docv) \
                   seconds is SIGKILLed and its batch re-assigned.")
  in
  let max_lease_attempts =
    Arg.(value & opt int Server.default_config.Server.max_lease_attempts
         & info [ "max-lease-attempts" ] ~docv:"N"
             ~doc:"Lease failures tolerated per batch before the campaign \
                   is poisoned.")
  in
  let max_active =
    Arg.(value & opt int Server.default_config.Server.max_active
         & info [ "max-active" ] ~docv:"N"
             ~doc:"Campaigns scheduled concurrently; further submissions \
                   wait in the admission queue.")
  in
  let worker_bind =
    Arg.(value & opt (some string) None & info [ "worker-bind" ]
           ~docv:"HOST:PORT"
           ~doc:"Additionally listen here for remote TCP workers \
                 ($(b,ft worker --connect)); port 0 picks an ephemeral \
                 port.")
  in
  let worker_port_file =
    Arg.(value & opt (some string) None & info [ "worker-port-file" ]
           ~docv:"PATH"
           ~doc:"Write the bound worker port here (useful with port 0).")
  in
  let run socket workers batch shards journal_dir cache_dir heartbeat
      max_lease_attempts max_active worker_bind worker_port_file metrics =
    let obs = Obs.create () in
    let cfg =
      {
        Server.default_config with
        Server.workers;
        batch;
        shards;
        journal_dir;
        heartbeat_s = heartbeat;
        max_lease_attempts;
        max_active;
        metrics = (if metrics then Some obs else None);
      }
    in
    Printf.eprintf "campaign server listening on %s (%d workers%s)\n%!" socket
      workers
      (match worker_bind with
      | Some b -> ", remote workers on " ^ b
      | None -> "");
    Server.serve ~cfg ?cache_dir ?worker_bind ?worker_port_file ~socket ();
    if metrics then print_string (Obs.report obs)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign server: a long-lived multi-tenant process that \
          queues campaign submissions over a Unix socket and interleaves \
          their trial batches across one shared pool of forked and remote \
          TCP workers under heartbeat-guarded leases, with per-campaign \
          sharded journals, fault isolation, and deterministic \
          worker-failure recovery.")
    Term.(const run $ socket_arg $ workers $ batch $ shards $ journal_dir
          $ cache_dir $ heartbeat $ max_lease_attempts $ max_active
          $ worker_bind $ worker_port_file $ metrics_arg)

let worker_cmd =
  let connect =
    Arg.(required & opt (some string) None & info [ "connect" ]
           ~docv:"HOST:PORT"
           ~doc:"Campaign server's worker port to attach to.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Content-addressed plan cache (campaigns rebuild warm).")
  in
  let idle_timeout =
    Arg.(value & opt float 600.0 & info [ "idle-timeout" ] ~docv:"S"
           ~doc:"Exit after $(docv) seconds without a command from the \
                 server (a worker must never outlive its server).")
  in
  let run addr cache_dir idle_timeout =
    Printf.eprintf "worker %d attaching to %s\n%!" (Unix.getpid ()) addr;
    match
      Worker.run_remote ~recv_timeout_s:idle_timeout ?cache_dir ~addr ()
    with
    | Ok () -> Printf.eprintf "worker: server closed the session\n%!"
    | Error e ->
        Printf.eprintf "worker: %s\n" e;
        exit 1
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Attach to a campaign server over TCP as a remote worker and \
          serve leases for any campaign it hosts; trial records stream \
          back under the same checksummed, resend-capable framing forked \
          workers use, so a vanished remote costs at most one in-flight \
          trial.")
    Term.(const run $ connect $ cache_dir $ idle_timeout)

let submit_cmd =
  let trials =
    Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N"
           ~doc:"Number of injections (default: statistical design, capped).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign RNG seed.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress stream.")
  in
  let resume =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"ID"
           ~doc:"Re-attach to a live campaign or resume an interrupted \
                 one's journal under this campaign id.")
  in
  let run name socket trials seed model recovery structure quiet resume =
    let spec =
      {
        Campaign.sp_app = name;
        sp_seed = seed;
        sp_trials = (match trials with Some _ -> trials | None -> Some 500);
        sp_model = model;
        sp_recovery = recovery;
        sp_structure = structure;
      }
    in
    let on_progress ~completed ~planned ~stolen =
      if not quiet then begin
        Printf.eprintf "\rsubmit: %d/%d trials (%d leases stolen)   "
          completed planned stolen;
        flush stderr
      end
    in
    let on_accepted id =
      if not quiet then Printf.eprintf "submit: accepted as %s\n%!" id
    in
    match
      Client.submit ~on_progress ~on_accepted ?resume_id:resume ~socket spec
    with
    | Ok (id, counts) ->
        if not quiet then prerr_newline ();
        Printf.printf "campaign: %s\n" id;
        Fmt.pr "%a@." Campaign.pp_counts counts
    | Error e ->
        if not quiet then prerr_newline ();
        Printf.eprintf "submit: %s\n" (Client.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a whole-program campaign to a running campaign server and \
          stream its progress; counts are byte-identical to running the \
          same campaign locally with --jobs 1.")
    Term.(const run $ app_arg $ socket_arg $ trials $ seed $ fault_model_arg
          $ recover_arg $ structure_arg $ quiet $ resume)

let status_cmd =
  let run socket =
    match Client.status ~socket () with
    | Ok s ->
        Printf.printf
          "state: %s\ncompleted: %d/%d\ncampaigns finished: %d\nqueued: %d  \
           active: %d  workers: %d\n"
          s.Proto.st_state s.Proto.st_completed s.Proto.st_planned
          s.Proto.st_campaigns s.Proto.st_queued s.Proto.st_active
          s.Proto.st_workers;
        List.iter
          (fun t ->
            Printf.printf "  %-18s %-10s %-9s %d/%d  leases=%d steals=%d\n"
              t.Proto.tn_id t.Proto.tn_app t.Proto.tn_state t.Proto.tn_completed
              t.Proto.tn_planned t.Proto.tn_leases t.Proto.tn_steals)
          s.Proto.st_tenants
    | Error e ->
        Printf.eprintf "status: %s\n" (Client.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Probe a running campaign server: global state plus one row \
             per campaign (queued, active, done, or poisoned).")
    Term.(const run $ socket_arg)

let id_arg =
  Cmdliner.Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ID" ~doc:"Campaign id (as printed by submit/status).")

let fetch_cmd =
  let run socket id =
    match Client.fetch ~socket ~id () with
    | Ok (Client.Finished counts) -> Fmt.pr "%a@." Campaign.pp_counts counts
    | Ok (Client.Running { completed; planned; stolen }) ->
        Printf.printf "running: %d/%d trials (%d leases stolen)\n" completed
          planned stolen
    | Ok (Client.Queued { position }) ->
        Printf.printf "queued: position %d\n" position
    | Error e ->
        Printf.eprintf "fetch: %s\n" (Client.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:
         "Retrieve a campaign's state by id: final counts for a finished \
          campaign (persisted — works long after the submitting connection \
          died), live progress for a running one, queue position for a \
          waiting one.")
    Term.(const run $ socket_arg $ id_arg)

let watch_cmd =
  let run socket id =
    let on_progress ~completed ~planned ~stolen =
      Printf.eprintf "\rwatch: %d/%d trials (%d leases stolen)   " completed
        planned stolen;
      flush stderr
    in
    match Client.watch ~on_progress ~socket ~id () with
    | Ok counts ->
        prerr_newline ();
        Fmt.pr "%a@." Campaign.pp_counts counts
    | Error e ->
        prerr_newline ();
        Printf.eprintf "watch: %s\n" (Client.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Attach to a campaign by id and stream its progress until the \
          verdict; a dropped connection re-attaches instead of losing the \
          campaign.")
    Term.(const run $ socket_arg $ id_arg)

let shutdown_cmd =
  let run socket =
    match Client.shutdown ~socket () with
    | Ok () -> print_endline "server shut down"
    | Error e ->
        Printf.eprintf "shutdown: %s\n" (Client.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask a running campaign server to exit; in-flight campaigns' \
             journals are synced so resubmitting with --resume continues \
             them.")
    Term.(const run $ socket_arg)

let () =
  let doc = "fine-grained error-propagation and resilience analysis" in
  let info = Cmd.info "fliptracker" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; trace_cmd; inject_cmd; campaign_cmd; patterns_cmd;
            rates_cmd; acl_cmd; lint_cmd; static_rank_cmd; harden_cmd;
            optimize_cmd; mpi_campaign_cmd; recovery_eval_cmd;
            arch_campaign_cmd; serve_cmd; worker_cmd; submit_cmd; status_cmd;
            fetch_cmd; watch_cmd; shutdown_cmd;
          ]))
