(* Differential identity of the compiled execution backend.

   The compiled backend must be bit-identical to the interpreter on
   the fixed seq contract: same outcome, output, final memory,
   instruction count, iteration count, and fault firing — for every
   registry program, its optimized (@opt:all) and hardened (@all)
   variants, fault-free and under each fault kind at sampled seqs.
   Campaign counts must likewise be identical across backends, pinned
   here on the historical 300-trial CG campaign. *)

let outcome_str = function
  | Machine.Finished -> "finished"
  | Machine.Trapped m -> "trapped: " ^ m
  | Machine.Budget_exceeded -> "budget"

(* every registry program in three forms: as baked, optimized by the
   full pipeline, hardened by the full pipeline *)
let programs () : (string * Prog.t * int) list =
  List.concat_map
    (fun (a : App.t) ->
      let p = App.program a in
      let m = App.iter_mark a in
      [
        (a.App.name, p, m);
        (a.App.name ^ "@opt:all", Opt.transform Opt.all p, m);
        (a.App.name ^ "@all", Harden.transform Passes.all p, m);
      ])
    Registry.all

let run_both (label : string) (prog : Prog.t) (cfg : Machine.config) =
  let ri = Machine.run prog cfg in
  let rc = Compiled.run (Compiled.plan_for prog) cfg in
  Alcotest.(check string) (label ^ " outcome")
    (outcome_str ri.Machine.outcome)
    (outcome_str rc.Machine.outcome);
  Alcotest.(check string) (label ^ " output") ri.Machine.output
    rc.Machine.output;
  Alcotest.(check int) (label ^ " instructions") ri.Machine.instructions
    rc.Machine.instructions;
  Alcotest.(check int) (label ^ " iterations") ri.Machine.iterations
    rc.Machine.iterations;
  Alcotest.(check bool) (label ^ " memory") true
    (Machine.mem_equal ri.Machine.mem rc.Machine.mem)

(* one fault of each kind, at deterministic seqs spread over the run *)
let sample_faults (prog : Prog.t) ~(instructions : int) : Machine.fault list =
  let n = max 2 instructions in
  let at k = k * (n - 1) / 7 in
  let addr = prog.Prog.mem_size / 2 in
  [
    Machine.Flip_write { seq = at 1; bit = 5 };
    Machine.Flip_write { seq = at 6; bit = 62 };
    Machine.Flip_mem { seq = at 3; addr; bit = 17 };
    Machine.Mask_write
      { seq = at 4; and_mask = -1L; or_mask = 0L; xor_mask = 0xF0L };
    Machine.Mask_mem
      {
        seq = at 5;
        addr;
        and_mask = Int64.lognot 0xFFL;
        or_mask = 1L;
        xor_mask = 0L;
      };
  ]

let test_identity_all_programs () =
  List.iter
    (fun (name, prog, iter_mark) ->
      let base = { Machine.default_config with iter_mark } in
      let clean = Machine.run prog base in
      run_both (name ^ " fault-free") prog base;
      let budget = 20 * max 1 clean.Machine.instructions in
      List.iter
        (fun fault ->
          run_both
            (Printf.sprintf "%s %s" name (Machine.fault_to_string fault))
            prog
            { base with fault = Some fault; budget })
        (sample_faults prog ~instructions:clean.Machine.instructions))
    (programs ())

(* the historical 300-trial CG campaign: counts must be identical
   across backends AND equal to the pinned historical numbers *)
let test_campaign_counts_identical () =
  let app = Registry.find "CG" in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  let run backend =
    Campaign.run prog ~verify:(App.verify app)
      ~clean_instructions:clean.Machine.instructions
      ~cfg:{ Campaign.default_config with max_trials = Some 300 }
      ~exec:{ Campaign.default_exec with backend }
      target
  in
  let ci = run Backend.Interp in
  let cc = run Backend.Compiled in
  Alcotest.(check int) "success equal" ci.Campaign.success cc.Campaign.success;
  Alcotest.(check int) "failed equal" ci.Campaign.failed cc.Campaign.failed;
  Alcotest.(check int) "crashed equal" ci.Campaign.crashed cc.Campaign.crashed;
  Alcotest.(check int) "trials equal" ci.Campaign.trials cc.Campaign.trials;
  (* and both match the numbers pinned since the campaign was first
     recorded — the backend cannot move them *)
  Alcotest.(check int) "success pinned" 122 cc.Campaign.success;
  Alcotest.(check int) "failed pinned" 89 cc.Campaign.failed;
  Alcotest.(check int) "crashed pinned" 89 cc.Campaign.crashed

(* unsupported configurations: Compiled.run refuses, Backend.runner
   falls back to the interpreter so callers never lose functionality *)
let test_fallback () =
  let app = Registry.find "IS" in
  let prog = App.program app in
  Alcotest.check_raises "Compiled.run refuses a traced config"
    (Invalid_argument
       "Compiled.run: config needs the interpreter (trace, sink, MPI hooks, \
        recovery, or a cache fault attached)")
    (fun () ->
      ignore
        (Compiled.run (Compiled.plan_for prog)
           { Machine.default_config with trace = Some (Trace.create ()) }));
  Alcotest.(check bool) "supported: plain" true
    (Compiled.supported Machine.default_config);
  Alcotest.(check bool) "supported: traced" false
    (Compiled.supported
       { Machine.default_config with trace = Some (Trace.create ()) });
  Alcotest.(check bool) "supported: recovery" false
    (Compiled.supported
       { Machine.default_config with
         recover = Some Machine.default_recover
       });
  (* the backend switch still produces a trace by falling back *)
  let t = Trace.create () in
  let r =
    Backend.run Backend.Compiled prog
      { Machine.default_config with trace = Some t }
  in
  Alcotest.(check bool) "fallback run finished" true
    (r.Machine.outcome = Machine.Finished);
  Alcotest.(check bool) "fallback produced events" true (Trace.length t > 0)

(* the plan cache: same program, physically or structurally, yields the
   same plan *)
let test_plan_cache () =
  let prog = App.program (Registry.find "IS") in
  let p1 = Compiled.plan_for prog in
  let p2 = Compiled.plan_for prog in
  Alcotest.(check bool) "physically shared" true (p1 == p2);
  Alcotest.(check bool) "remembers its program" true
    (Compiled.prog p1 == prog)

(* --- per-domain memory reuse ---------------------------------------------

   Compiled runs on one domain share one memory buffer, register stack
   and output buffer.  Nothing a trial leaves in them may reach the
   next trial, and a result's memory view must refuse to be read once
   its domain has run again. *)

(* what a compiled run yields, with memory copied out of its view *)
let snapshot (r : Machine.result) =
  ( outcome_str r.Machine.outcome,
    r.Machine.output,
    r.Machine.instructions,
    Machine.mem_to_array r.Machine.mem )

let check_snapshot label (o, out, n, mem) (o', out', n', mem') =
  Alcotest.(check string) (label ^ " outcome") o o';
  Alcotest.(check string) (label ^ " output") out out';
  Alcotest.(check int) (label ^ " instructions") n n';
  Alcotest.(check bool) (label ^ " memory") true (mem = mem')

(* the same run on a domain of its own, whose state nothing has used:
   what a fresh process computes *)
let on_fresh_domain prog cfg =
  Domain.join
    (Domain.spawn (fun () ->
         snapshot (Compiled.run (Compiled.plan_for prog) cfg)))

let test_reuse_after_memory_fault () =
  let prog = App.program (Registry.find "IS") in
  let plan = Compiled.plan_for prog in
  let reference = Machine.run prog Machine.default_config in
  let budget = 20 * reference.Machine.instructions in
  let n = reference.Machine.instructions in
  let faulty fault =
    Compiled.run plan { Machine.default_config with budget; fault = Some fault }
  in
  (* a corrupted word, a corrupted write, then a wild memory fault that
     traps mid-run: each leaves the domain's buffers dirty *)
  let size = prog.Prog.mem_size in
  ignore (faulty (Machine.Flip_mem { seq = n / 10; addr = size / 2; bit = 40 }));
  ignore (faulty (Machine.Flip_write { seq = n / 3; bit = 62 }));
  let trapped =
    faulty (Machine.Flip_mem { seq = n / 2; addr = size; bit = 1 })
  in
  Alcotest.(check string) "wild fault traps"
    (Printf.sprintf "trapped: segfault at address %d" size)
    (outcome_str trapped.Machine.outcome);
  let r = Compiled.run plan Machine.default_config in
  Alcotest.(check string) "outcome" "finished" (outcome_str r.Machine.outcome);
  Alcotest.(check string) "reference output" reference.Machine.output
    r.Machine.output;
  Alcotest.(check bool) "reference memory" true
    (Machine.mem_equal reference.Machine.mem r.Machine.mem)

let test_alternating_mem_sizes () =
  let is_opt = Opt.transform Opt.all (App.program (Registry.find "IS")) in
  let cg = App.program (Registry.find "CG") in
  Alcotest.(check bool) "distinct memory sizes" true
    (is_opt.Prog.mem_size <> cg.Prog.mem_size);
  let runs =
    List.concat_map
      (fun (name, prog) ->
        let n =
          (Machine.run prog Machine.default_config).Machine.instructions
        in
        let budget = 20 * n in
        [
          (name ^ " clean", prog, Machine.default_config);
          ( name ^ " flip-mem",
            prog,
            {
              Machine.default_config with
              budget;
              fault =
                Some (Machine.Flip_mem { seq = n / 4; addr = 7; bit = 33 });
            } );
        ])
      [ ("IS@opt", is_opt); ("CG", cg) ]
  in
  let fresh =
    List.map (fun (label, prog, cfg) -> (label, on_fresh_domain prog cfg)) runs
  in
  (* forward, backward and forward again on this one domain, so each
     memory size runs right after the other *)
  let interleaved = List.concat [ runs; List.rev runs; runs ] in
  List.iter
    (fun (label, prog, cfg) ->
      check_snapshot label (List.assoc label fresh)
        (snapshot (Compiled.run (Compiled.plan_for prog) cfg)))
    interleaved

let test_stale_view_raises () =
  let prog = App.program (Registry.find "IS") in
  let plan = Compiled.plan_for prog in
  let interp = Machine.run prog Machine.default_config in
  let first = Compiled.run plan Machine.default_config in
  Alcotest.(check bool) "fresh view readable" true
    (Machine.mem_equal interp.Machine.mem first.Machine.mem);
  let second = Compiled.run plan Machine.default_config in
  let stale f =
    Alcotest.check_raises "stale view"
      (Invalid_argument
         "Machine.mem: stale view (a later run on its domain reused the \
          memory)")
      (fun () -> ignore (f first.Machine.mem))
  in
  stale (fun m -> Machine.mem_get m 0);
  stale Machine.mem_length;
  stale Machine.mem_to_array;
  stale (fun m -> Machine.mem_equal m second.Machine.mem);
  Alcotest.(check bool) "latest view readable" true
    (Machine.mem_equal interp.Machine.mem second.Machine.mem);
  Alcotest.(check int64) "interpreter view outlives compiled runs"
    (Machine.mem_get second.Machine.mem 3)
    (Machine.mem_get interp.Machine.mem 3)

let suite =
  ( "backend",
    [
      Alcotest.test_case "compiled = interpreter: registry + variants" `Slow
        test_identity_all_programs;
      Alcotest.test_case "campaign counts identical across backends" `Slow
        test_campaign_counts_identical;
      Alcotest.test_case "unsupported configs fall back" `Quick test_fallback;
      Alcotest.test_case "plan cache" `Quick test_plan_cache;
      Alcotest.test_case "domain memory reset after a memory fault" `Quick
        test_reuse_after_memory_fault;
      Alcotest.test_case "alternating memory sizes = fresh domains" `Quick
        test_alternating_mem_sizes;
      Alcotest.test_case "stale memory view raises" `Quick
        test_stale_view_raises;
    ] )
