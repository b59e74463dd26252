(* FlipTracker benchmark harness.

   Regenerates every table and figure of the paper's evaluation:

     fig4  LLVM parallel tracing overhead        (Section V-B)
     fig5  per-code-region success rates         (Section V-C)
     fig6  per-iteration success rates           (Section V-C)
     fig7  the LULESH ACL time series            (Sections II/VI)
     tab1  region inventory + patterns found     (Section VI)
     tab2  repeated additions vs error magnitude (Section VI)
     tab3  Use Case 1: hardened CG               (Section VII-A)
     tab4  Use Case 2: resilience prediction     (Section VII-B)
     perf  bechamel micro-benchmarks of the framework itself
     campaign-scale  resilient executor throughput at 1/2/4/8 workers

   Usage: main.exe [--effort quick|default|paper | --quick | --paper]
                   [--jobs N] [experiment ...]
   With no experiment arguments, everything runs.  --jobs fans the
   campaigns of fig5/fig6/tab3/tab4 out over N domains (the counts are
   identical for any N). *)

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let hr () = print_endline (String.make 78 '-')

let header title =
  hr ();
  print_endline title;
  hr ()

let rate = Campaign.success_rate

(* --- Figure 4 ---------------------------------------------------------- *)

let fig4 effort =
  header "Figure 4: parallel tracing overhead (simulated MPI ranks)";
  Printf.printf "%-8s %6s %14s %14s %10s\n" "app" "ranks" "untraced(s)"
    "traced(s)" "overhead";
  let rows = Experiments.fig4 ~effort () in
  List.iter
    (fun (r : Experiments.fig4_row) ->
      Printf.printf "%-8s %6d %14.3f %14.3f %9.1f%%\n" r.f4_app r.f4_ranks
        r.f4_untraced_s r.f4_traced_s (100.0 *. r.f4_overhead))
    rows;
  let avg =
    List.fold_left (fun a (r : Experiments.fig4_row) -> a +. r.f4_overhead)
      0.0 rows
    /. float_of_int (List.length rows)
  in
  Printf.printf
    "average tracing overhead: %.1f%% (paper: 45%% average at 64 ranks)\n"
    (100.0 *. avg)

(* --- Figure 5 ---------------------------------------------------------- *)

let fig5 effort =
  header
    "Figure 5: success rate per code region (instance 0), internal vs input";
  Printf.printf "%-8s %-8s %28s %28s\n" "app" "region" "internal" "input";
  List.iter
    (fun app ->
      List.iter
        (fun (r : Experiments.region_rates_row) ->
          Printf.printf "%-8s %-8s  %5.2f |%-20s %5.2f |%-20s\n" r.rr_app
            r.rr_region (rate r.rr_internal)
            (bar 20 (rate r.rr_internal))
            (rate r.rr_input)
            (bar 20 (rate r.rr_input)))
        (Experiments.fig5 ~effort app))
    Registry.analyzed

(* --- Figure 6 ---------------------------------------------------------- *)

let fig6 effort =
  header "Figure 6: success rate per main-loop iteration, internal vs input";
  Printf.printf "%-8s %5s %28s %28s\n" "app" "iter" "internal" "input";
  List.iter
    (fun app ->
      List.iter
        (fun (r : Experiments.iteration_rates_row) ->
          Printf.printf "%-8s %5d  %5.2f |%-20s %5.2f |%-20s\n" r.ir_app
            r.ir_iteration (rate r.ir_internal)
            (bar 20 (rate r.ir_internal))
            (rate r.ir_input)
            (bar 20 (rate r.ir_input)))
        (Experiments.fig6 ~effort app))
    Registry.analyzed

(* --- Figure 7 ---------------------------------------------------------- *)

let fig7 _effort =
  header "Figure 7: alive corrupted locations over time (LULESH)";
  let s = Experiments.fig7 Lulesh.app in
  Printf.printf "fault: %s\n" (Machine.fault_to_string s.Experiments.as_fault);
  let acl = s.Experiments.as_result in
  Printf.printf "ACL peak %d; %d death events; %d masking events; %s\n\n"
    acl.Acl.peak
    (List.length acl.Acl.deaths)
    (List.length acl.Acl.maskings)
    (match acl.Acl.divergence with
    | Some i -> Printf.sprintf "control diverged at event %d" i
    | None -> "no control divergence");
  let n = Array.length acl.Acl.series in
  let step = max 1 (n / 50) in
  Printf.printf "%12s %6s\n" "instruction" "ACL";
  Array.iteri
    (fun i (seq, count) ->
      if i mod step = 0 || i = n - 1 then
        Printf.printf "%12d %6d |%s\n" seq count
          (bar 40 (float_of_int count /. float_of_int (max 1 acl.Acl.peak))))
    acl.Acl.series;
  print_endline
    "(expected shape: rises as the error spreads, falls as temporaries die \
     at region boundaries - cf. paper Figure 7)"

(* --- Table I ------------------------------------------------------------ *)

let tab1 effort =
  header "Table I: resilience patterns observed per code region";
  Printf.printf "%-8s %-8s %-10s %10s   %s\n" "program" "region" "lines"
    "#instr/it" "patterns found (instances)";
  List.iter
    (fun app ->
      List.iter
        (fun (r : Experiments.table1_row) ->
          let lo, hi = r.t1_lines in
          let pats =
            r.t1_counts
            |> List.filter (fun (_, n) -> n > 0)
            |> List.map (fun (p, n) ->
                   Printf.sprintf "%s(%d)" (Pattern.to_string p) n)
            |> String.concat " "
          in
          Printf.printf "%-8s %-8s %4d-%-5d %10d   %s\n" r.t1_app r.t1_region
            lo hi r.t1_instr_per_iter
            (if String.equal pats "" then "none observed" else pats))
        (Experiments.table1 ~effort app))
    Registry.analyzed

(* --- Table II ----------------------------------------------------------- *)

let tab2 _effort =
  header "Table II: repeated additions shrink the error magnitude (MG)";
  Printf.printf "%5s %22s %22s %16s\n" "itr" "original value"
    "corrupted value" "error magnitude";
  List.iter
    (fun (r : Experiments.table2_row) ->
      Printf.printf "%5d %22.15f %22.15f %16.6e\n" (r.t2_iteration + 1)
        r.t2_correct r.t2_faulty r.t2_magnitude)
    (Experiments.table2 ());
  print_endline
    "(expected shape: strictly decreasing error magnitude across V-cycles, \
     as in paper Table II)"

(* --- Table III ---------------------------------------------------------- *)

let tab3 effort =
  header "Table III: resilience patterns applied to CG (Use Case 1)";
  Printf.printf "%-10s %12s %14s %26s\n" "variant" "app resi."
    "v/iv@sprnvc" "exe time (s) min-max/avg";
  List.iter
    (fun (r : Experiments.table3_row) ->
      Printf.printf "%-10s %12.3f %14.3f %12.4f-%.4f/%.4f\n" r.t3_variant
        (rate r.t3_counts) (rate r.t3_sprnvc) r.t3_time_min r.t3_time_max
        r.t3_time_avg)
    (Experiments.table3 ~effort ());
  print_endline
    "(expected shape: the DCL+overwriting transformation raises the \
     resilience of the code it modifies (sprnvc column) sharply and the \
     whole-app rate slightly - its dilution is proportional to sprnvc's \
     share of execution - with ~no runtime cost; cf. paper Table III)"

(* --- Table IV ----------------------------------------------------------- *)

let tab4 effort =
  header "Table IV: pattern rates and resilience prediction (Use Case 2)";
  let t = Experiments.table4 ~effort () in
  Printf.printf "%-8s %9s %9s %9s %9s %9s %9s | %8s %8s %7s %8s %7s\n" "app"
    "cond" "shift" "trunc" "dead" "radd" "overwr" "meas.SR" "pred.SR" "err"
    "w-pred" "w-err";
  List.iter
    (fun (r : Experiments.table4_row) ->
      let x = r.t4_rates in
      Printf.printf
        "%-8s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f | %8.3f %8.3f %6.1f%% %8.3f %6.1f%%\n"
        r.t4_app x.Rates.condition x.Rates.shift x.Rates.truncation
        x.Rates.dead_location x.Rates.repeated_addition x.Rates.overwrite
        r.t4_measured r.t4_predicted (100.0 *. r.t4_error)
        r.t4_weighted_predicted
        (100.0 *. r.t4_weighted_error))
    t.Experiments.rows;
  Printf.printf "\nfull-fit R-square: %.3f (paper: 0.964)\n"
    t.Experiments.r_square;
  Printf.printf
    "mean leave-one-out prediction error: %.1f%% (paper: 14.3%% excl. DC)\n"
    (100.0 *. t.Experiments.unweighted_loo_error);
  Printf.printf
    "with masking-probability-weighted features (paper future work): %.1f%%\n"
    (100.0 *. t.Experiments.weighted_loo_error);
  Printf.printf "standardized coefficients:";
  Array.iteri
    (fun i c -> Printf.printf " %s=%.2f" Rates.feature_names.(i) c)
    t.Experiments.std_coefficients;
  print_newline ()

(* --- ablations ----------------------------------------------------------- *)

let ablate _effort =
  header "Ablations: effect of the framework's own design choices";
  let pair (p : Ablation.campaign_pair) =
    Printf.printf "%s\n" p.Ablation.label;
    let line name (c : Campaign.counts) =
      Printf.printf "  %-22s rate %.3f (success %d, failed %d, crashed %d)\n"
        name (rate c) c.Campaign.success c.Campaign.failed c.Campaign.crashed
    in
    line p.Ablation.variant_a p.Ablation.counts_a;
    line p.Ablation.variant_b p.Ablation.counts_b
  in
  pair (Ablation.typed_bits ());
  print_newline ();
  pair (Ablation.heap_slack ());
  print_newline ();
  let t = Ablation.acl_vs_taint () in
  Printf.printf "ACL (liveness-aware) vs plain taint counting on %s:\n"
    t.Ablation.at_app;
  Printf.printf "  ACL   peak %5d, final %5d\n" t.Ablation.acl_peak
    t.Ablation.acl_final;
  Printf.printf "  taint peak %5d, final %5d\n" t.Ablation.taint_peak
    t.Ablation.taint_final;
  print_endline
    "  (taint overstates the error footprint by counting corrupted-but-dead \
     locations; liveness tracking is what lets the ACL series fall)"

(* --- campaign-scale ------------------------------------------------------ *)

let json_out = ref (Some "BENCH_optimize.json")

(* one throughput sweep over the jobs axis; returns (jobs, trials, wall,
   trials/sec) rows and warns if the counts ever diverge from --jobs 1 *)
let scale_rows ?(backend = Backend.default) (app : App.t) jobs_list cfg =
  let clean, target = Fliptracker.whole_program_target app in
  let prog = App.program app in
  let base_counts = ref None in
  List.map
    (fun jobs ->
      (* best-of-3 wall time, with the heap settled before each
         repetition: a single short campaign is at the mercy of host
         noise and of GC debt left by whatever ran before it *)
      let r =
        List.fold_left
          (fun best _ ->
            Gc.full_major ();
            let r =
              Campaign.run_report prog ~verify:(App.verify app)
                ~clean_instructions:clean.Machine.instructions ~cfg
                ~exec:{ Campaign.default_exec with jobs; backend }
                target
            in
            match best with
            | Some b when b.Campaign.wall_s <= r.Campaign.wall_s -> Some b
            | _ -> Some r)
          None [ 1; 2; 3 ]
        |> Option.get
      in
      let c = r.Campaign.counts in
      (match !base_counts with
      | None -> base_counts := Some c
      | Some b ->
          if b <> c then
            Printf.printf
              "  WARNING: counts diverged from --jobs 1 (determinism bug)\n");
      let wall = r.Campaign.wall_s in
      let tps = Float.of_int c.Campaign.trials /. Float.max 1e-9 wall in
      (jobs, c.Campaign.trials, wall, tps))
    jobs_list

let campaign_scale (effort : Effort.t) =
  header "campaign-scale: resilient campaign executor, trials/sec vs workers";
  let app = Is.app in
  let cfg =
    (* a fixed trial count, so the jobs axis is the only variable *)
    { effort.Effort.campaign with Campaign.max_trials = Some 240 }
  in
  (* recorded in both JSON files: a trials/s figure means nothing
     without the core count it was measured on *)
  let nproc = Domain.recommended_domain_count () in
  Printf.printf
    "recommended domain count on this machine: %d (speedup is bounded by \
     the physical cores available)\n"
    nproc;
  let jobs_list = [ 1; 2; 4; 8 ] in
  Printf.printf "%-10s %-6s %10s %12s %10s %8s\n" "app" "jobs" "trials"
    "wall(s)" "trials/s" "speedup";
  let print_rows name rows =
    let baseline = ref None in
    List.iter
      (fun (jobs, trials, wall, tps) ->
        let speedup =
          match !baseline with
          | None ->
              baseline := Some wall;
              1.0
          | Some b -> b /. wall
        in
        Printf.printf "%-10s %-6d %10d %12.3f %10.1f %7.2fx\n" name jobs
          trials wall tps speedup)
      rows
  in
  let base_rows = scale_rows app jobs_list cfg in
  print_rows app.App.name base_rows;
  (* the same sweep with the analysis-gated optimizer pipeline applied:
     the trials/sec ratio at equal jobs is the optimizer's campaign
     throughput win *)
  let opt_app = Opt.app_variant app in
  let opt_rows = scale_rows opt_app jobs_list cfg in
  print_rows opt_app.App.name opt_rows;
  let ratios =
    List.map2
      (fun (jobs, _, _, tb) (_, _, _, topt) -> (jobs, topt /. Float.max 1e-9 tb))
      base_rows opt_rows
  in
  List.iter
    (fun (jobs, r) ->
      Printf.printf "optimizer throughput at --jobs %d: %.2fx trials/sec\n"
        jobs r)
    ratios;
  print_endline
    "(counts are bit-identical across the jobs axis: per-trial RNG streams \
     are derived from the trial index, never from scheduling)";
  (* backend axis: the tracing interpreter vs the closure-compiled
     backend at equal jobs — counts are bit-identical by construction
     (pinned by the test suite), so trials/sec is the whole story *)
  print_newline ();
  Printf.printf "%-14s %-9s %-6s %10s %12s %10s %14s\n" "app" "backend" "jobs"
    "trials" "wall(s)" "trials/s" "speedup(c/i)";
  let backend_jobs = [ 1; 4 ] in
  let backend_speedups =
    List.concat_map
      (fun bapp ->
        let sweep b = scale_rows ~backend:b bapp backend_jobs cfg in
        let interp_rows = sweep Backend.Interp in
        let compiled_rows = sweep Backend.Compiled in
        let print_b bname rows =
          List.iter
            (fun (jobs, trials, wall, tps) ->
              Printf.printf "%-14s %-9s %-6d %10d %12.3f %10.1f %14s\n"
                bapp.App.name bname jobs trials wall tps "")
            rows
        in
        print_b "interp" interp_rows;
        print_b "compiled" compiled_rows;
        List.map2
          (fun (jobs, _, _, ti) (_, _, _, tc) ->
            let s = tc /. Float.max 1e-9 ti in
            Printf.printf "%-14s %-9s %-6d %10s %12s %10s %13.2fx\n"
              bapp.App.name "both" jobs "" "" "" s;
            (bapp.App.name, jobs, ti, tc, s))
          interp_rows compiled_rows)
      [ app; Opt.app_variant app ]
  in
  let min_speedup =
    List.fold_left (fun a (_, _, _, _, s) -> Float.min a s) infinity
      backend_speedups
  in
  Printf.printf
    "compiled-backend speedup over the non-tracing interpreter: min %.2fx\n"
    min_speedup;
  (match !json_out with
  | None -> ()
  | Some _ ->
      let path = "BENCH_compile.json" in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"campaign-scale/backend\",\n\
        \  \"nproc\": %d,\n\
        \  \"rows\": [\n\
         %s\n\
        \  ],\n\
        \  \"min_speedup\": %.2f\n\
         }\n"
        nproc
        (String.concat ",\n"
           (List.map
              (fun (name, jobs, ti, tc, s) ->
                Printf.sprintf
                  "    {\"app\": %S, \"jobs\": %d, \"interp_trials_per_sec\": \
                   %.1f, \"compiled_trials_per_sec\": %.1f, \"speedup\": \
                   %.2f}"
                  name jobs ti tc s)
              backend_speedups))
        min_speedup;
      close_out oc;
      Printf.printf "wrote %s\n" path);
  match !json_out with
  | None -> ()
  | Some path ->
      let row_json name (jobs, trials, wall, tps) =
        Printf.sprintf
          "    {\"app\": %S, \"jobs\": %d, \"trials\": %d, \"wall_s\": %.3f, \
           \"trials_per_sec\": %.1f}"
          name jobs trials wall tps
      in
      let min_ratio =
        List.fold_left (fun a (_, r) -> Float.min a r) infinity ratios
      in
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"campaign-scale\",\n\
        \  \"nproc\": %d,\n\
        \  \"app\": %S,\n\
        \  \"optimizer\": \"%s\",\n\
        \  \"rows\": [\n\
         %s\n\
        \  ],\n\
        \  \"throughput_ratio_per_jobs\": {%s},\n\
        \  \"min_throughput_ratio\": %.2f\n\
         }\n"
        nproc app.App.name
        (String.concat "; "
           (List.map (fun (p : Pass.t) -> p.Pass.name) Opt.all))
        (String.concat ",\n"
           (List.map (row_json app.App.name) base_rows
           @ List.map (row_json opt_app.App.name) opt_rows))
        (String.concat ", "
           (List.map
              (fun (jobs, r) -> Printf.sprintf "\"%d\": %.2f" jobs r)
              ratios))
        min_ratio;
      close_out oc;
      Printf.printf "wrote %s\n" path

(* --- bechamel perf suite ------------------------------------------------ *)

let perf _effort =
  header "perf: framework micro-benchmarks (bechamel)";
  let open Bechamel in
  let cg_prog = App.program Cg.app in
  let _, cg_trace = App.trace Cg.app in
  let is_prog = App.program Is.app in
  let cg_access = Access.build cg_trace in
  let cg_inst = List.hd (Region.instances cg_trace) in
  let _, mg_clean = App.trace Mg.app in
  let mg_fault =
    Machine.Write { seq = 100_000; corruption = Machine.flip 40 }
  in
  let reg_rng = Rng.create ~seed:1 in
  let reg_x =
    Array.init 64 (fun _ -> Array.init 6 (fun _ -> Rng.float reg_rng))
  in
  let reg_y =
    Array.map (fun row -> Linalg.dot row [| 1.; 2.; 3.; 4.; 5.; 6. |]) reg_x
  in
  let tests =
    [
      Test.make ~name:"vm-run-IS"
        (Staged.stage (fun () -> ignore (Machine.run_plain is_prog)));
      Test.make ~name:"vm-run-CG"
        (Staged.stage (fun () -> ignore (Machine.run_plain cg_prog)));
      Test.make ~name:"tracer-run-IS"
        (Staged.stage (fun () -> ignore (Machine.run_traced is_prog)));
      Test.make ~name:"access-index-CG"
        (Staged.stage (fun () -> ignore (Access.build cg_trace)));
      Test.make ~name:"dddg-region-CG"
        (Staged.stage (fun () ->
             ignore
               (Dddg.build cg_trace cg_access ~lo:cg_inst.Region.lo
                  ~hi:cg_inst.Region.hi)));
      Test.make ~name:"acl-replay-MG"
        (Staged.stage (fun () ->
             ignore
               (Experiments.replay_acl Mg.app ~clean:mg_clean mg_fault
                  ~budget:10_000_000)));
      Test.make ~name:"pattern-rates-CG"
        (Staged.stage (fun () -> ignore (Rates.compute cg_trace cg_access)));
      Test.make ~name:"regression-fit"
        (Staged.stage (fun () -> ignore (Regression.fit reg_x reg_y)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"fliptracker" tests)
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (t :: _) ->
          Printf.printf "%-36s %14.1f ns/run (%9.3f ms)\n" name t (t /. 1e6)
      | Some [] | None -> Printf.printf "%-36s (no estimate)\n" name)
    rows

(* --- trace-codec -------------------------------------------------------- *)

(* Text-vs-binary codec comparison with a hard round-trip gate: both
   files are read back and compared event-for-event against the
   original trace, and any mismatch makes the experiment exit nonzero —
   so `--quick trace-codec` doubles as the CI smoke test for the
   serialization layer. *)

let event_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.seq = b.Trace.seq && a.fidx = b.fidx && a.pc = b.pc && a.act = b.act
  && a.line = b.line && a.region = b.region && a.instance = b.instance
  && a.iter = b.iter && a.op = b.op
  && Array.length a.reads = Array.length b.reads
  && Array.length a.writes = Array.length b.writes
  && Array.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.reads b.reads
  && Array.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.writes b.writes

let trace_codec effort =
  header "trace-codec: text vs binary trace serialization";
  let apps =
    (* quick keeps the CI smoke run on the small IS trace; larger
       efforts add CG, the trace the compression target is quoted on. *)
    if effort.Effort.acl_injections <= Effort.quick.Effort.acl_injections then
      [ Is.app ]
    else [ Is.app; Cg.app ]
  in
  let obs = Obs.create () in
  let failures = ref 0 in
  Printf.printf "%-6s %9s %12s %12s %7s %10s %10s\n" "app" "events" "text(B)"
    "binary(B)" "ratio" "enc(MB/s)" "dec(MB/s)";
  List.iter
    (fun (app : App.t) ->
      let _, trace = App.trace app in
      let n = Trace.length trace in
      let path = Filename.temp_file "ft_codec" ".trace" in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (Unix.gettimeofday () -. t0, r)
      in
      let save fmt =
        let dt, () = timed (fun () -> Trace_io.save ~format:fmt path trace) in
        (dt, (Unix.stat path).Unix.st_size)
      in
      let check label =
        let dt, back = timed (fun () -> Trace_io.load path) in
        let ok = ref (Trace.length back = n) in
        if !ok then
          Trace.iteri
            (fun i e -> if not (event_equal e (Trace.get back i)) then ok := false)
            trace;
        if not !ok then begin
          incr failures;
          Printf.printf "  ROUND-TRIP MISMATCH: %s %s\n" app.App.name label
        end;
        dt
      in
      let text_s, text_bytes = save Trace_io.Text in
      ignore (check "text");
      ignore text_s;
      let bin_s, bin_bytes = save Trace_io.Binary in
      let dec_s = check "binary" in
      Sys.remove path;
      (* per-event binary size distribution, via the low-level codec *)
      let enc = Trace_io.encoder () in
      let buf = Buffer.create 256 in
      let hist = app.App.name ^ "/event-bytes" in
      Trace.iter
        (fun e ->
          Buffer.clear buf;
          Trace_io.encode_event enc buf e;
          Obs.observe obs hist (Buffer.length buf))
        trace;
      let mbps bytes s =
        if s > 0.0 then float_of_int bytes /. 1e6 /. s else 0.0
      in
      let ratio = float_of_int text_bytes /. float_of_int (max 1 bin_bytes) in
      Printf.printf "%-6s %9d %12d %12d %6.2fx %10.1f %10.1f\n" app.App.name n
        text_bytes bin_bytes ratio (mbps bin_bytes bin_s) (mbps bin_bytes dec_s);
      if ratio < 4.0 then
        Printf.printf "  WARNING: binary/text ratio %.2fx below the 4x target\n"
          ratio)
    apps;
  print_newline ();
  print_string (Obs.report obs);
  if !failures > 0 then begin
    Printf.printf "trace-codec: %d round-trip failure(s)\n" !failures;
    exit 1
  end
  else print_endline "trace-codec: all round-trips bit-exact"

(* --- harden-overhead ---------------------------------------------------- *)

let harden_overhead (effort : Effort.t) =
  header
    "harden-overhead: cost of the automatic hardening pipeline (all passes)";
  let apps =
    (* quick = the two Use Case apps; otherwise the full registry *)
    if Option.value ~default:max_int effort.Effort.campaign.Campaign.max_trials
       <= 40
    then [ Registry.find "CG"; Registry.find "IS" ]
    else Registry.all
  in
  Printf.printf "%-8s %9s %9s %7s %10s %10s %7s %9s\n" "app" "static"
    "static'" "x" "dynamic" "dynamic'" "x" "wall x";
  List.iter
    (fun (app : App.t) ->
      let base = App.program app in
      let hard = Harden.transform Passes.all base in
      let time prog =
        let t0 = Unix.gettimeofday () in
        let r = Machine.run_plain prog in
        (r, Unix.gettimeofday () -. t0)
      in
      let rb, tb = time base in
      let rh, th = time hard in
      assert (App.verified rh.Machine.output);
      Printf.printf "%-8s %9d %9d %6.2fx %10d %10d %6.2fx %8.2fx\n"
        app.App.name (Prog.static_size base) (Prog.static_size hard)
        (float_of_int (Prog.static_size hard)
        /. float_of_int (max 1 (Prog.static_size base)))
        rb.Machine.instructions rh.Machine.instructions
        (float_of_int rh.Machine.instructions
        /. float_of_int (max 1 rb.Machine.instructions))
        (th /. Float.max 1e-9 tb))
    apps;
  print_endline
    "(expected shape: duplicate-compare dominates the overhead in its \
     top-K regions; every hardened run still verifies fault-free)"

(* --- recovery-overhead --------------------------------------------------- *)

(* What does arming checkpoint/rollback cost when nothing goes wrong?
   The snapshot interval bounds the work: a full register+memory copy
   every [snapshot_interval] instructions on the entry frame.  Fault-free
   runs must take zero restores and verify identically. *)
let recovery_overhead _effort =
  header "recovery-overhead: fault-free cost of arming checkpoint/rollback";
  Printf.printf "%-8s %10s %12s %12s %9s %9s\n" "app" "instrs" "plain(s)"
    "armed(s)" "overhead" "restores";
  List.iter
    (fun (app : App.t) ->
      let prog = App.program app in
      let time cfg =
        let t0 = Unix.gettimeofday () in
        let r = Machine.run prog cfg in
        (r, Unix.gettimeofday () -. t0)
      in
      let rp, tp = time Machine.default_config in
      let ra, ta =
        time
          {
            Machine.default_config with
            recover = Some Machine.default_recover;
          }
      in
      assert (ra.Machine.outcome = Machine.Finished);
      assert (ra.Machine.restores = 0);
      assert (String.equal rp.Machine.output ra.Machine.output);
      Printf.printf "%-8s %10d %12.3f %12.3f %8.1f%% %9d\n" app.App.name
        rp.Machine.instructions tp ta
        (100.0 *. ((ta /. Float.max 1e-9 tp) -. 1.0))
        ra.Machine.restores)
    [ Cg.app; Mg.app; Is.app; Kmeans.app; Lulesh.app ];
  print_endline
    "(fault-free armed runs take zero restores and print byte-identical \
     output; the overhead is the bounded-interval snapshot copies)"

(* --- server-scale -------------------------------------------------------- *)

(* The campaign scheduler against the in-process executor:
   forked-worker throughput, the overhead of journaling every trial,
   and the cost of surviving SIGKILLed workers.  Every row must produce
   counts byte-identical to the --jobs 1 reference; any row that does
   not exits nonzero.  The campaign is submitted as a wire spec, so its
   design is [Campaign.config_of_spec] of that spec (the effort's seed
   and trial cap, the default budget factor). *)
let server_scale (effort : Effort.t) =
  header "server-scale: forked campaign server, trials/sec vs workers";
  let trials =
    min 192
      (Option.value ~default:192 effort.Effort.campaign.Campaign.max_trials * 4)
  in
  let spec =
    {
      Campaign.default_spec with
      Campaign.sp_app = "IS";
      sp_seed = effort.Effort.campaign.Campaign.seed;
      sp_trials = Some trials;
    }
  in
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ft-bench-server-%d-%s" (Unix.getpid ()) name)
  in
  let rm_rf d = ignore (Sys.command ("rm -rf " ^ Filename.quote d)) in
  let cache_dir = scratch "cache" in
  Unix.mkdir cache_dir 0o755;
  match Plan.spec_of_submission ~cache_dir spec with
  | Error e ->
      Printf.printf "server-scale: cannot bake IS: %s\n" e;
      exit 1
  | Ok s ->
      let enc outcomes =
        Csexp.to_string
          (Campaign.counts_to_csexp (Campaign.counts_of_outcomes outcomes))
      in
      let t0 = Unix.gettimeofday () in
      let reference =
        Executor.run ~cfg:{ Executor.default_config with jobs = 1 } s
      in
      let ref_wall = Unix.gettimeofday () -. t0 in
      let ref_counts = enc reference.Executor.outcomes in
      let mismatches = ref 0 in
      Printf.printf "%-22s %-8s %10s %12s %10s %8s %6s\n" "configuration"
        "workers" "trials" "wall(s)" "trials/s" "speedup" "ident";
      let row name workers wall counts =
        let ident = String.equal counts ref_counts in
        if not ident then incr mismatches;
        Printf.printf "%-22s %-8d %10d %12.3f %10.1f %7.2fx %6s\n" name
          workers trials wall
          (float_of_int trials /. Float.max 1e-9 wall)
          (ref_wall /. Float.max 1e-9 wall)
          (if ident then "yes" else "NO")
      in
      row "executor --jobs 1" 1 ref_wall ref_counts;
      let server_row name workers chaos journal =
        let dir = if journal then Some (scratch name) else None in
        let cfg =
          {
            Sched.default_config with
            Sched.workers;
            batch = 16;
            chaos_kills = chaos;
            heartbeat_s = 30.0;
          }
        in
        let job, final = Sched.tenant ~id:name ?journal:dir spec s in
        let completed = ref None in
        let on_event _ = function
          | Sched.Finished { completed = n; _ } -> completed := Some n
          | _ -> ()
        in
        let spawn ~close_fds =
          Worker.spawn ~close_fds ~load:(Worker.plan_loader ~cache_dir)
            ~retry:Executor.default_config ()
        in
        let t0 = Unix.gettimeofday () in
        let eng = Sched.create ~cfg ~spawn ~on_event () in
        ignore (Sched.submit eng job);
        Sched.drain eng;
        Sched.shutdown_workers eng;
        let wall = Unix.gettimeofday () -. t0 in
        row name workers wall
          (match !completed with
          | Some n -> enc (final n)
          | None -> "no verdict");
        Option.iter rm_rf dir
      in
      server_row "server" 1 [] false;
      server_row "server" 2 [] false;
      server_row "server" 4 [] false;
      server_row "server+journal" 4 [] true;
      server_row "server+chaos" 2 [ trials / 4; trials / 2 ] false;
      rm_rf cache_dir;
      print_endline
        "(ident = counts byte-identical to the --jobs 1 reference; the \
         chaos row SIGKILLs two workers mid-campaign and must still say \
         yes)";
      if !mismatches > 0 then begin
        Printf.printf "server-scale: FAILED (%d row(s) not identical)\n"
          !mismatches;
        exit 1
      end

(* --- arch-structures ------------------------------------------------------ *)

(* One program injected through every microarchitectural surface: the
   per-structure outcome profiles (the FlipTracker-style comparison of
   where errors do and do not propagate from) plus the wall-clock cost
   of each surface — cache faults force the interpreter, istore faults
   re-bake a mutant per trial. *)
let arch_structures (effort : Effort.t) =
  header "arch-structures: per-structure campaign profiles and cost";
  let trials =
    min 120 (Option.value ~default:120 effort.Effort.campaign.Campaign.max_trials)
  in
  let app = Is.app in
  let t0 = Unix.gettimeofday () in
  let r = Arch_eval.evaluate ~trials ~jobs:effort.Effort.jobs app in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "%-11s %12s %6s %6s %6s %6s  %8s %8s\n" "structure"
    "population" "trials" "benign" "SDC" "crash" "SDCrate" "crashrt";
  List.iter
    (fun (c : Arch_eval.cell) ->
      let k = c.Arch_eval.ac_counts in
      Printf.printf "%-11s %12d %6d %6d %6d %6d  %8.4f %8.4f\n"
        (Structure.to_string c.Arch_eval.ac_structure)
        c.Arch_eval.ac_population k.Campaign.trials k.Campaign.success
        k.Campaign.failed k.Campaign.crashed
        (Campaign.sdc_rate k) (Campaign.crash_rate k))
    r.Arch_eval.ar_cells;
  Printf.printf
    "(%s, %d trials/structure, cache %s, %.1fs total; counts are a pure \
     function of (app, seed, structure))\n"
    r.Arch_eval.ar_app trials
    (Cache_model.geometry_to_string r.Arch_eval.ar_geometry)
    wall

(* --- driver ------------------------------------------------------------- *)

let all_experiments =
  [
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("tab1", tab1); ("tab2", tab2); ("tab3", tab3); ("tab4", tab4);
    ("ablate", ablate); ("perf", perf); ("campaign-scale", campaign_scale);
    ("trace-codec", trace_codec); ("harden-overhead", harden_overhead);
    ("recovery-overhead", recovery_overhead); ("server-scale", server_scale);
    ("arch-structures", arch_structures);
  ]

let () =
  let effort = ref Effort.default in
  let chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--effort" :: e :: rest ->
        effort := Effort.of_string e;
        parse rest
    | "--quick" :: rest ->
        effort := Effort.quick;
        parse rest
    | "--paper" :: rest ->
        effort := Effort.paper;
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> effort := { !effort with Effort.jobs = j }
        | Some _ | None ->
            Printf.eprintf "--jobs needs a positive integer, got %S\n" n;
            exit 2);
        parse rest
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse rest
    | "--no-json" :: rest ->
        json_out := None;
        parse rest
    | name :: rest ->
        (match List.assoc_opt name all_experiments with
        | Some f -> chosen := !chosen @ [ (name, f) ]
        | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat " " (List.map fst all_experiments));
            exit 2);
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let todo = if !chosen = [] then all_experiments else !chosen in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f !effort) todo;
  hr ();
  Printf.printf "done in %.1f s\n" (Unix.gettimeofday () -. t0)
