(* Scratch driver kept for interactive exploration during development;
   the real entry points are bin/fliptracker_cli.exe, bench/main.exe
   and the examples.  With no arguments, prints a pipeline sanity line.

   [ft_dev lint-all] runs the static verifier and the vulnerability
   ranking over the whole registry (the ten study programs plus the
   hardened CG variants) AND over the auto-hardened all-passes variant
   of each of the ten programs, and exits nonzero if any program has a
   lint error — the static-analysis counterpart of the sanity line and
   the CI gate on the hardening pipeline's output IR.
   [ft_dev sites] prints per-app static pattern-site counts and
   [ft_dev radd APP] the repeated-addition sites of one app.
   [ft_dev acl-parity [APP...]] checks streamed ACL analysis (one run
   of the faulty program into a sink) against stored traces (see
   [acl_parity]).
   [ft_dev ckpt-parity [APP...]] checks checkpointed compiled trials
   against the interpreter (see [ckpt_parity]).
   [ft_dev alloc-gate] prints the minor words a compiled IS@opt trial
   allocates, the instructions it executes, and the minor words a mined
   LULESH injection allocates, and exits nonzero when any drifts from
   its checked-in value (see [alloc_gate]). *)

let dedup_apps (apps : App.t list) : App.t list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (a : App.t) ->
      if Hashtbl.mem seen a.App.name then false
      else begin
        Hashtbl.add seen a.App.name ();
        true
      end)
    apps

let lint_all () =
  let apps = dedup_apps (Registry.all @ Registry.cg_variants) in
  let failed = ref 0 in
  (* registered programs first, then the hardening pipeline's output for
     each of the ten study programs (labelled NAME@all) — the transform
     is applied directly to the compiled IR, no re-bake needed *)
  let programs =
    List.map (fun (a : App.t) -> (a.App.name, App.program a)) apps
    @ List.map
        (fun (a : App.t) ->
          (a.App.name ^ "@all", Harden.transform Passes.all (App.program a)))
        Registry.all
    @ List.map
        (fun (a : App.t) ->
          (a.App.name ^ "@opt", Opt.transform Opt.all (App.program a)))
        Registry.all
  in
  List.iter
    (fun (name, p) ->
      let ds = Verify.verify p in
      let errs = List.length (Verify.errors ds) in
      let warns = List.length (Verify.warnings ds) in
      if errs > 0 then incr failed;
      Printf.printf "%-12s %d errors, %d warnings\n" name errs warns;
      List.iter
        (fun d -> Fmt.pr "    %a@." Verify.pp_diag d)
        (Verify.errors ds);
      let ranking = Vuln.rank p in
      List.iteri
        (fun i s ->
          if i < 3 then
            Printf.printf "    #%d %-12s score %7.3f\n" (i + 1)
              s.Vuln.rname s.Vuln.score)
        ranking)
    programs;
  if !failed > 0 then begin
    Printf.printf "lint-all: %d program(s) with errors\n" !failed;
    exit 1
  end
  else Printf.printf "lint-all: all %d programs clean\n" (List.length programs)

let sanity () =
  let app = Registry.find "IS" in
  let r = App.reference app in
  Printf.printf
    "fliptracker dev: %s runs %d instructions, verified=%b; see bin/fliptracker_cli.exe --help\n"
    app.App.name r.Machine.instructions
    (App.verified r.Machine.output)

let sites () =
  List.iter
    (fun (a : App.t) ->
      let r = Static_detect.analyze (App.program a) in
      Printf.printf "%-8s cond %3d shift %2d trunc %2d store %3d radd %2d\n"
        a.App.name
        (List.length r.Static_detect.conditionals)
        (List.length r.Static_detect.shifts)
        (List.length r.Static_detect.truncations)
        (List.length r.Static_detect.overwrites)
        (List.length r.Static_detect.repeated_adds))
    Registry.all

let opt_report name =
  let app = Registry.find name in
  let base = App.program app in
  let prog, reports, map = Opt.optimize Opt.all base in
  Opt.check_identity
    ~passes:(List.map (fun (p : Pass.t) -> p.Pass.name) Opt.all)
    ~base ~opt:prog;
  Fmt.pr "%a" Opt.pp_reports reports;
  let rb = Machine.run_plain base and ro = Machine.run_plain prog in
  Printf.printf
    "%s: static %d -> %d instructions, dynamic %d -> %d (%.2fx), %d pcs \
     deleted, identity OK\n"
    app.App.name
    (Opt.static_instruction_count base)
    (Opt.static_instruction_count prog)
    rb.Machine.instructions ro.Machine.instructions
    (float_of_int rb.Machine.instructions
    /. float_of_int (max 1 ro.Machine.instructions))
    (Sitemap.deleted map);
  let _, t = Machine.run_traced prog in
  let h = Hashtbl.create 16 in
  Trace.iter
    (fun e ->
      let k =
        match e.Trace.op with
        | Trace.OConst -> "const"
        | Trace.OBin _ -> "bin"
        | Trace.OUn _ -> "un"
        | Trace.OLoad -> "load"
        | Trace.OStore -> "store"
        | Trace.OJmp -> "jmp"
        | Trace.OBr _ -> "br"
        | Trace.OCall -> "call"
        | Trace.ORet -> "ret"
        | Trace.OIntr _ -> "intr"
        | Trace.OMark _ -> "mark"
      in
      Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
    t;
  Hashtbl.iter (fun k v -> Printf.printf "  %-6s %d\n" k v) h

let trial_cost name =
  (* where campaign wall time goes: total instructions interpreted across
     the same 240-trial design the campaign-scale bench runs *)
  let app =
    match String.index_opt name '@' with
    | None -> Registry.find name
    | Some i -> Opt.app_variant (Registry.find (String.sub name 0 i))
  in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  let budget = 20 * clean.Machine.instructions in
  let total = ref 0 and hangs = ref 0 and traps = ref 0 in
  for i = 0 to 239 do
    let rng = Rng.derive ~seed:42 ~index:i in
    let fault = Campaign.sample_fault rng target in
    let r = Machine.run prog { Machine.default_config with budget; fault = Some fault } in
    total := !total + r.Machine.instructions;
    match r.Machine.outcome with
    | Machine.Budget_exceeded -> incr hangs
    | Machine.Trapped _ -> incr traps
    | Machine.Finished -> ()
  done;
  Printf.printf
    "%s: clean %d instr; 240 trials: %d total instr (avg %d), %d hangs, %d \
     traps\n"
    app.App.name clean.Machine.instructions !total (!total / 240) !hangs !traps

(* The allocation gate.  Minor words are a deterministic function of
   the code path, unlike wall time on a shared runner, so CI gates on
   them: each reading has a checked-in value, and a change that moves
   it by more than [alloc_gate_tolerance] must update it (and say why).
   Every reading runs on one domain and counts inside the measured
   calls only.
   - Trials: perfbench's trial-kernel replay, [Rng.derive] +
     [Campaign.sample_fault] + [Campaign.run_one_with] on the compiled
     IS@opt plan, over the first [alloc_gate_trials] trials: the minor
     words they allocate and the instructions they execute
     ([Compiled.executed], the two clean runs that record the plan's
     checkpoints included).  Run from instruction 0 to the end, these
     trials would execute 126,007 instructions each.
   - Mining: [Experiments.replay_acl] on LULESH over the faults
     [acl-parity] draws ([seeded_faults]): one streamed faulty run and
     its ACL analysis per injection, so a second run of the faulty
     program or an index of it per injection shows up here. *)
let alloc_gate_words = 1_634.
let alloc_gate_executed = 28_718.
let alloc_gate_mining_words = 9_764_131.
let alloc_gate_tolerance = 0.05
let alloc_gate_trials = 128

(* the eight whole-program faults drawn from seed 11 in [c]'s app *)
let seeded_faults (c : Experiments.app_ctx) : Machine.fault list =
  let target =
    Campaign.whole_program_target c.Experiments.prog c.Experiments.trace
  in
  let rng = Rng.create ~seed:11 in
  List.init 8 (fun _ -> Campaign.sample_fault rng target)

(* print one reading against its checked-in value; [true] within bound *)
let alloc_reading name ~what ~measured ~pinned =
  let drift = Float.abs (measured -. pinned) /. pinned in
  Printf.printf
    "%s %.0f (%s; checked-in %.0f, drift %.1f%%, bound %.0f%%)\n" name
    measured what pinned (100. *. drift) (100. *. alloc_gate_tolerance);
  drift <= alloc_gate_tolerance

let alloc_gate () =
  let app =
    match Fliptracker.resolve_app "IS@opt" with
    | Ok a -> a
    | Error msg -> failwith msg
  in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  let cfg = Campaign.default_config in
  let budget = cfg.Campaign.budget_factor * max 1 clean.Machine.instructions in
  let run = Backend.runner Backend.Compiled prog in
  let words = ref 0.0 in
  let counted f x =
    let w0 = Gc.minor_words () in
    let r = f x in
    words := !words +. (Gc.minor_words () -. w0);
    r
  in
  let executed0 = Compiled.executed () in
  for i = 0 to alloc_gate_trials - 1 do
    let fault =
      Campaign.sample_fault (Rng.derive ~seed:cfg.Campaign.seed ~index:i) target
    in
    ignore
      (Campaign.run_one_with (counted run) ~budget ~verify:(App.verify app)
         fault)
  done;
  let trials_ok =
    alloc_reading "vm.compiled.minor_words_per_trial"
      ~what:
        (Printf.sprintf "IS@opt, first %d trials, one domain" alloc_gate_trials)
      ~measured:(!words /. float_of_int alloc_gate_trials)
      ~pinned:alloc_gate_words
  in
  let executed_ok =
    alloc_reading "vm.compiled.executed_per_trial"
      ~what:
        (Printf.sprintf
           "IS@opt, first %d trials, checkpoint recording included"
           alloc_gate_trials)
      ~measured:
        (float_of_int (Compiled.executed () - executed0)
        /. float_of_int alloc_gate_trials)
      ~pinned:alloc_gate_executed
  in
  let app = Registry.find "LULESH" in
  let c = Experiments.context app in
  let budget = 10 * c.Experiments.clean.Machine.instructions in
  let faults = seeded_faults c in
  words := 0.0;
  List.iter
    (counted (fun fault ->
         ignore
           (Experiments.replay_acl app ~clean:c.Experiments.trace fault ~budget)))
    faults;
  let mining_ok =
    alloc_reading "analysis.minor_words_per_injection"
      ~what:"LULESH replay_acl, the 8 seed-11 acl-parity faults, one domain"
      ~measured:(!words /. float_of_int (List.length faults))
      ~pinned:alloc_gate_mining_words
  in
  if not (trials_ok && executed_ok && mining_ok) then begin
    Printf.printf
      "alloc-gate: FAILED (update the checked-in value in bin/ft_dev.ml if \
       the change is intended)\n";
    exit 1
  end

let profile name =
  (* dynamic instruction counts per pc of the optimized program, hottest
     first — where the remaining interpreter time goes *)
  let app = Registry.find name in
  let prog = Opt.transform Opt.all (App.program app) in
  let _, t = Machine.run_traced prog in
  let counts = Hashtbl.create 64 in
  Trace.iter
    (fun e ->
      let k = (e.Trace.fidx, e.Trace.pc) in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    t;
  let l = Hashtbl.fold (fun k v acc -> (v, k) :: acc) counts [] in
  let l = List.sort (fun a b -> compare b a) l in
  List.iteri
    (fun i (v, (fidx, pc)) ->
      if i < 48 then begin
        let f = prog.Prog.funcs.(fidx) in
        Printf.printf "%8d  %s pc %4d line %4d  %s\n" v f.Prog.fname pc
          f.Prog.lines.(pc)
          (Fmt.str "%a" Instr.pp f.Prog.code.(pc))
      end)
    l

(* --- journal inspect / verify / compact ---------------------------------- *)

let journal_files (path : string) : string list =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".journal")
    |> List.sort compare
    |> List.map (Filename.concat path)
  else [ path ]

let trial_key (r : Csexp.t) : string option =
  match r with
  | Csexp.List (Csexp.Atom "t" :: Csexp.Atom idx :: _) -> Some idx
  | _ -> None

(* one journal file's shape: header, record tallies, torn tail *)
let inspect_one (path : string) : bool =
  let records, valid_end = Journal.load path in
  let size = (Unix.stat path).Unix.st_size in
  let torn = size - valid_end in
  Printf.printf "%s\n" path;
  (match records with
  | Csexp.List
      [ Csexp.Atom magic; Csexp.Atom version; Csexp.Atom tag; Csexp.Atom total ]
    :: rest
    when magic = "fliptracker-journal" ->
      Printf.printf "  header: v%s tag %s, %s trials planned\n" version tag
        total;
      let ok = ref 0 and infra = Hashtbl.create 4 and other = ref 0 in
      let seen = Hashtbl.create 256 and dups = ref 0 in
      List.iter
        (fun r ->
          match r with
          | Csexp.List
              (Csexp.Atom "t" :: Csexp.Atom idx :: Csexp.Atom verdict :: _) ->
              if Hashtbl.mem seen idx then incr dups
              else Hashtbl.add seen idx ();
              if verdict = "ok" then incr ok
              else (
                let k =
                  match r with
                  | Csexp.List [ _; _; _; Csexp.Atom m ] ->
                      Infra.kind_of_message m
                  | _ -> "unknown"
                in
                Hashtbl.replace infra k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt infra k)))
          | _ -> incr other)
        rest;
      Printf.printf "  records: %d trials (%d ok" (Hashtbl.length seen) !ok;
      Hashtbl.iter (fun k v -> Printf.printf ", %d infra/%s" v k) infra;
      Printf.printf ")%s%s\n"
        (if !dups > 0 then Printf.sprintf ", %d superseded duplicates" !dups
         else "")
        (if !other > 0 then Printf.sprintf ", %d foreign records" !other
         else "")
  | [] -> Printf.printf "  empty journal\n"
  | _ -> Printf.printf "  NO VALID HEADER (not a campaign journal?)\n");
  Printf.printf "  valid prefix: %d of %d bytes%s\n" valid_end size
    (if torn > 0 then
       Printf.sprintf " — TORN TAIL (%d bytes would be healed)" torn
     else "");
  torn = 0 && records <> []

let journal_cmd (action : string) (path : string) =
  let files = journal_files path in
  if files = [] then begin
    Printf.eprintf "journal: no .journal files under %s\n" path;
    exit 2
  end;
  match action with
  | "inspect" -> ignore (List.map inspect_one files)
  | "verify" ->
      let healthy = List.for_all inspect_one files in
      if healthy then print_endline "journal: OK"
      else begin
        print_endline "journal: UNHEALTHY (torn tail or missing header)";
        exit 1
      end
  | "compact" ->
      List.iter
        (fun f ->
          let before, after = Journal.compact ~key:trial_key f in
          Printf.printf "%s: %d -> %d bytes (%.0f%%)\n" f before after
            (100.0 *. float_of_int after /. float_of_int (max 1 before)))
        files
  | other ->
      Printf.eprintf
        "journal: unknown action %s (expected inspect|verify|compact)\n" other;
      exit 2

(* --- chaos-campaign: the worker-failure determinism gate ------------------ *)

(* K campaigns ([--tenants K], default 1) over one fair-share
   scheduler and a pool of forked workers plus [--tcp N] remote-TCP
   workers, with chaos SIGKILLs landing on whoever delivered last.
   Tenants 0 and 1 submit byte-identical specs (same tag — the
   journal-directory-collision regression: their ids and journal
   directories must still be distinct); the rest shrink the trial
   design.  Fails unless a worker was killed and every tenant's counts
   (csexp encoding compared as strings, infra and recovery fields
   included) are byte-identical to its own in-process [--jobs 1] run. *)
let chaos_campaign (name : string) ~(workers : int) ~(tcp : int)
    ~(tenants : int) ~(kills : int list) ~(trials : int) =
  let tmp = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let cache_dir = Filename.concat tmp (Printf.sprintf "ft-chaos-cache-%d" pid) in
  let journal_root =
    Filename.concat tmp (Printf.sprintf "ft-chaos-journals-%d" pid)
  in
  let spec_of i =
    let t =
      if i <= 1 then trials else max 16 (trials - (trials / 4 * (i - 1)))
    in
    {
      Campaign.default_spec with
      Campaign.sp_app = name;
      sp_trials = Some t;
    }
  in
  let tenant i =
    let spec = spec_of i in
    match Plan.spec_of_submission ~cache_dir spec with
    | Error e ->
        Printf.eprintf "chaos-campaign: tenant %d: %s\n" i e;
        exit 2
    | Ok ex_spec ->
        let id =
          Printf.sprintf "c%04d-%s" i
            (String.sub (Cache.key ex_spec.Executor.tag) 0 10)
        in
        let reference =
          Executor.run
            ~cfg:{ Executor.default_config with Executor.jobs = 1 }
            ex_spec
        in
        let job, final =
          Sched.tenant ~id ~journal:(Filename.concat journal_root id) spec
            ex_spec
        in
        (id, job, final, reference)
  in
  let rows = List.init tenants tenant in
  let total_trials =
    List.fold_left (fun a (_, j, _, _) -> a + j.Sched.jb_total) 0 rows
  in
  let kills =
    if kills <> [] then kills else [ total_trials / 4; total_trials / 2 ]
  in
  let obs = Obs.create () in
  let finished : (string, Sched.event) Hashtbl.t = Hashtbl.create 8 in
  let on_event id = function
    | Sched.Progress _ -> ()
    | e -> Hashtbl.replace finished id e
  in
  (* mixed pool: a TCP listener the remote workers dial into, plus the
     forked workers the engine keeps at strength *)
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let addr = Printf.sprintf "127.0.0.1:%d" port in
  let spawn ~close_fds =
    Worker.spawn
      ~close_fds:(lfd :: close_fds)
      ~load:(Worker.plan_loader ~cache_dir)
      ~retry:Executor.default_config ()
  in
  let cfg =
    {
      Sched.default_config with
      Sched.workers;
      chaos_kills = kills;
      heartbeat_s = 10.0;
      max_active = max 2 (tenants - 1);
      metrics = Some obs;
    }
  in
  let eng = Sched.create ~cfg ~spawn ~on_event () in
  let remote_pids =
    List.init tcp (fun _ -> Worker.spawn_remote ~cache_dir ~addr ())
  in
  List.iter
    (fun _ ->
      let fd, _ = Unix.accept lfd in
      Sched.attach_remote eng (Wire.of_fd fd))
    remote_pids;
  List.iter
    (fun (_, job, _, _) ->
      match Sched.submit eng job with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "chaos-campaign: submit: %s\n" e;
          exit 2)
    rows;
  (try Sched.drain eng
   with e ->
     Sched.abort eng;
     raise e);
  Sched.shutdown_workers eng;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (* remote children exit when their connection closes; reap bounded *)
  List.iter
    (fun rpid ->
      let reaped = ref false in
      let n = ref 0 in
      while (not !reaped) && !n < 100 do
        incr n;
        match Unix.waitpid [ Unix.WNOHANG ] rpid with
        | 0, _ -> Unix.sleepf 0.02
        | _ -> reaped := true
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> reaped := true
      done;
      if not !reaped then begin
        (try Unix.kill rpid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] rpid) with Unix.Unix_error _ -> ()
      end)
    remote_pids;
  Printf.printf
    "chaos-campaign: %d tenants (%d trials total), %d forked + %d TCP workers, \
     kills at %s\n"
    tenants total_trials workers tcp
    (String.concat "," (List.map string_of_int kills));
  List.iter
    (fun (s : Sched.tenant_stats) ->
      Printf.printf "  %-16s %-8s %4d/%-4d leases %-3d stolen %d\n" s.Sched.ts_id
        s.Sched.ts_state s.Sched.ts_completed s.Sched.ts_planned
        s.Sched.ts_leases s.Sched.ts_steals)
    (Sched.stats eng);
  (* by name: first-use order depends on which worker spoke first *)
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %d\n" k v)
    (List.sort compare (Obs.counters obs));
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> incr failures; print_endline m) fmt in
  let killed =
    Option.value ~default:0 (Obs.counter_value obs "server/chaos-kills")
  in
  if killed = 0 then fail "chaos-campaign: FAILED (no worker was killed)";
  let enc c = Csexp.to_string (Campaign.counts_to_csexp c) in
  List.iter
    (fun (id, _, final, (reference : _ Executor.report)) ->
      match Hashtbl.find_opt finished id with
      | Some (Sched.Finished { completed; _ }) ->
          if completed <> reference.Executor.completed then
            fail "chaos-campaign: %s FAILED (completed %d vs %d)" id completed
              reference.Executor.completed
          else begin
            let counts = Campaign.counts_of_outcomes (final completed) in
            let ref_counts =
              Campaign.counts_of_outcomes reference.Executor.outcomes
            in
            if not (String.equal (enc counts) (enc ref_counts)) then
              fail
                "chaos-campaign: %s FAILED (counts diverge)\n\
                \  server    %s\n\
                \  reference %s"
                id (enc counts) (enc ref_counts)
          end;
          if not (Sys.file_exists (Filename.concat journal_root id)) then
            fail "chaos-campaign: %s FAILED (journal directory missing)" id
      | Some (Sched.Poisoned { batch; attempts; cause }) ->
          fail "chaos-campaign: %s FAILED (%s)" id
            (Infra.poison_message ~batch ~attempts cause)
      | Some (Sched.Failed { reason }) ->
          fail "chaos-campaign: %s FAILED (admission: %s)" id reason
      | Some (Sched.Progress _) | None ->
          fail "chaos-campaign: %s FAILED (no terminal event)" id)
    rows;
  (* the collision regression: identical specs, distinct directories *)
  (match rows with
  | (id0, _, _, _) :: (id1, _, _, _) :: _ when tenants >= 2 ->
      if String.equal id0 id1 then
        fail "chaos-campaign: FAILED (duplicate specs share a campaign id)"
  | _ -> ());
  if !failures = 0 then begin
    (* a failed run keeps its journals for inspection *)
    List.iter
      (fun d -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)))
      [ cache_dir; journal_root ];
    print_endline "chaos-campaign: OK (every tenant byte-identical to --jobs 1)"
  end
  else begin
    Printf.printf "chaos-campaign: %d check(s) FAILED\n" !failures;
    exit 1
  end

(* [ft_dev seq-parity [APP...]] — the traced/untraced seq-contract
   gate.  Fault sites are harvested from traced runs and injected into
   untraced campaign runs, keyed by dynamic sequence number; if tracing
   perturbs the seq stream (the historical bug: the call-return
   attribution event consumed a seq only when a trace was attached),
   harvested sites silently land on the wrong instruction.  For each
   app this checks, end to end:
   - the traced and untraced fault-free instruction counts agree;
   - no harvested whole-program site lies beyond the untraced stream;
   - injecting at the call-return attribution seqs (the exact seqs the
     bug displaced) gives identical results traced and untraced.
   Defaults to kmeans and kmeans@opt — the registry app with
   value-returning calls, which is where the bug class manifests. *)
let seq_parity (names : string list) =
  let same_result (a : Machine.result) (b : Machine.result) =
    a.Machine.outcome = b.Machine.outcome
    && String.equal a.Machine.output b.Machine.output
    && a.Machine.instructions = b.Machine.instructions
    && a.Machine.iterations = b.Machine.iterations
    && Machine.mem_equal a.Machine.mem b.Machine.mem
  in
  let failed = ref 0 in
  let check label ok detail =
    if not ok then begin
      incr failed;
      Printf.printf "seq-parity: %-14s FAILED (%s)\n" label detail
    end
  in
  List.iter
    (fun name ->
      let app =
        match Fliptracker.resolve_app name with
        | Ok a -> a
        | Error msg ->
            Printf.eprintf "seq-parity: %s\n" msg;
            exit 2
      in
      let prog = App.program app in
      let iter_mark = App.iter_mark app in
      let rt, trace = App.trace app in
      let ru =
        Machine.run prog { Machine.default_config with iter_mark }
      in
      check name
        (rt.Machine.instructions = ru.Machine.instructions)
        (Printf.sprintf "traced ran %d instructions, untraced %d"
           rt.Machine.instructions ru.Machine.instructions);
      let target = Campaign.whole_program_target prog trace in
      (match
         Campaign.unreachable_sites target
           ~instructions:ru.Machine.instructions
       with
      | [] -> ()
      | seqs ->
          check name false
            (Printf.sprintf "%d phantom sites, first seq %d"
               (List.length seqs) (List.hd seqs)));
      (* fault parity at the attribution seqs (every ORet write), or at
         a few sampled write seqs for apps without value-returning
         calls so the gate still exercises injection end to end *)
      let ret_seqs = ref [] in
      Trace.iter
        (fun (e : Trace.event) ->
          match e.Trace.op with
          | Trace.ORet when Array.length e.Trace.writes > 0 ->
              ret_seqs := e.Trace.seq :: !ret_seqs
          | _ -> ())
        trace;
      let probes =
        match List.sort_uniq compare !ret_seqs with
        | [] ->
            let n = ru.Machine.instructions in
            List.sort_uniq compare [ 0; n / 3; n / 2; (2 * n) / 3; n - 1 ]
        | seqs ->
            (* cap the probe count: parity at any displaced seq fails *)
            List.filteri (fun i _ -> i < 8) seqs
      in
      let budget = 20 * max 1 ru.Machine.instructions in
      List.iter
        (fun seq ->
          let fault = Machine.Write { seq; corruption = Machine.flip 3 } in
          let ft, _ = App.trace_with_fault app fault ~budget in
          let fu =
            Machine.run prog
              {
                Machine.default_config with
                iter_mark;
                fault = Some fault;
                budget;
              }
          in
          check name (same_result ft fu)
            (Printf.sprintf "traced and untraced disagree under flip at seq %d"
               seq))
        probes;
      Printf.printf "seq-parity: %-14s %s (%d instructions, %d probes)\n" name
        (if !failed = 0 then "OK" else "checked")
        ru.Machine.instructions (List.length probes))
    names;
  if !failed > 0 then begin
    Printf.printf "seq-parity: %d check(s) FAILED\n" !failed;
    exit 1
  end

(* [ft_dev ckpt-parity [APP...] [--trials N]] — the checkpoint gate.
   For each app, N faults (alternately a whole-program register fault
   drawn as campaigns draw them and a memory fault just before a load
   of the corrupted word, seed 5) run on a fresh compiled plan, which
   starts each trial at the last clean snapshot before its fault and
   stops it once its state rejoins the clean run, and on the
   interpreter, which runs every trial from instruction 0.  Prints the
   share of the trials' instructions the compiled runs executed
   (recording the snapshots included) and exits nonzero unless outcome,
   output, final memory, instruction and iteration counts all agree.
   Defaults to IS@opt, CG and MG at 300 trials. *)
let ckpt_parity (names : string list) ~(trials : int) =
  let failed = ref 0 in
  List.iter
    (fun name ->
      let app =
        match Fliptracker.resolve_app name with
        | Ok a -> a
        | Error msg ->
            Printf.eprintf "ckpt-parity: %s\n" msg;
            exit 2
      in
      let prog = App.program app in
      let iter_mark = App.iter_mark app in
      let clean, trace = App.trace app in
      let target = Campaign.whole_program_target prog trace in
      let loads =
        Trace.fold
          (fun acc (e : Trace.event) ->
            Array.fold_left
              (fun acc (loc, _) ->
                match loc with
                | Loc.Mem a -> (e.Trace.seq, a) :: acc
                | Loc.Reg _ -> acc)
              acc e.Trace.reads)
          [] trace
        |> Array.of_list
      in
      let budget = 20 * max 1 clean.Machine.instructions in
      let plan = Compiled.compile prog in
      let rng = Rng.create ~seed:5 in
      let executed = ref 0 and instructions = ref 0 and bad = ref 0 in
      for i = 0 to trials - 1 do
        let fault =
          if i mod 2 = 0 || Array.length loads = 0 then
            Campaign.sample_fault rng target
          else
            let seq, addr = Rng.choose rng loads in
            Machine.Mem
              { seq; addr; corruption = Machine.flip (Rng.int rng 64) }
        in
        let cfg =
          { Machine.default_config with iter_mark; budget; fault = Some fault }
        in
        let ri = Machine.run prog cfg in
        let e0 = Compiled.executed () in
        let rc = Compiled.run plan cfg in
        executed := !executed + (Compiled.executed () - e0);
        instructions := !instructions + ri.Machine.instructions;
        if
          not
            (ri.Machine.outcome = rc.Machine.outcome
            && String.equal ri.Machine.output rc.Machine.output
            && ri.Machine.instructions = rc.Machine.instructions
            && ri.Machine.iterations = rc.Machine.iterations
            && Machine.mem_equal ri.Machine.mem rc.Machine.mem)
        then begin
          incr bad;
          Printf.printf "ckpt-parity: %-10s FAILED (%s)\n" name
            (Machine.fault_to_string fault)
        end
      done;
      failed := !failed + !bad;
      Printf.printf
        "ckpt-parity: %-10s %s (%d trials; compiled executed %.1f%% of their \
         %d instructions)\n"
        name
        (if !bad = 0 then "OK" else "checked")
        trials
        (100. *. float_of_int !executed /. float_of_int (max 1 !instructions))
        !instructions)
    names;
  if !failed > 0 then begin
    Printf.printf "ckpt-parity: %d trial(s) FAILED\n" !failed;
    exit 1
  end

(* [ft_dev acl-parity [APP...]] — the replay gate for ACL analysis.
   For each app, eight whole-program faults drawn from seed 11 are
   analyzed both ways: from a stored faulty trace ([App.trace_with_fault]
   then [Acl.analyze]) and by running the faulty program once into the
   analysis ([Experiments.replay_acl], the path Table I, Figure 7 and
   the facade take).  Prints the mean wall time per injection of each
   path and exits nonzero unless every run result and ACL result is
   identical.  Defaults to LULESH. *)
let acl_parity (names : string list) =
  let failed = ref 0 in
  List.iter
    (fun name ->
      let app =
        match Fliptracker.resolve_app name with
        | Ok a -> a
        | Error msg ->
            Printf.eprintf "acl-parity: %s\n" msg;
            exit 2
      in
      let c = Experiments.context app in
      let clean = c.Experiments.trace in
      let budget = 10 * c.Experiments.clean.Machine.instructions in
      let faults = seeded_faults c in
      (* each path runs over all faults from a compacted heap, so each
         pays for its own garbage *)
      let timed path =
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let rs = List.map path faults in
        (rs, (Unix.gettimeofday () -. t0) *. 1000.0 /. 8.0)
      in
      let stored, stored_ms =
        timed (fun fault ->
            let r, faulty = App.trace_with_fault app fault ~budget in
            (r, Acl.analyze ~fault ~clean ~faulty ()))
      in
      let replayed, replay_ms =
        timed (fun fault -> Experiments.replay_acl app ~clean fault ~budget)
      in
      let ok = ref true in
      List.iteri
        (fun i (((rs : Machine.result), s), ((rr : Machine.result), r)) ->
          if
            not
              (rs.Machine.outcome = rr.Machine.outcome
              && rs.Machine.instructions = rr.Machine.instructions
              && String.equal rs.Machine.output rr.Machine.output
              && compare s r = 0)
          then begin
            ok := false;
            incr failed;
            Printf.printf "acl-parity: %-10s FAILED (%s)\n" name
              (Machine.fault_to_string (List.nth faults i))
          end)
        (List.combine stored replayed);
      Printf.printf
        "acl-parity: %-10s %s (8 faults; stored %.1f ms/injection, replay \
         %.1f ms/injection)\n"
        name
        (if !ok then "OK" else "checked")
        stored_ms replay_ms)
    names;
  if !failed > 0 then begin
    Printf.printf "acl-parity: %d injection(s) FAILED\n" !failed;
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "lint-all" :: _ -> lint_all ()
  | _ :: "profile" :: rest ->
      profile (match rest with name :: _ -> name | [] -> "IS")
  | _ :: "opt" :: rest ->
      opt_report (match rest with name :: _ -> name | [] -> "IS")
  | _ :: "alloc-gate" :: _ -> alloc_gate ()
  | _ :: "trial-cost" :: rest ->
      trial_cost (match rest with name :: _ -> name | [] -> "IS")
  | _ :: "opt-dump" :: rest ->
      let name = match rest with n :: _ -> n | [] -> "IS" in
      let app = Registry.find name in
      let prog = Opt.transform Opt.all (App.program app) in
      Fmt.pr "%a@." Prog.pp prog
  | _ :: "journal" :: action :: path :: _ -> journal_cmd action path
  | _ :: "journal" :: _ ->
      Printf.eprintf "usage: ft_dev journal inspect|verify|compact PATH\n";
      exit 2
  | _ :: "chaos-campaign" :: rest ->
      let name = ref "IS" and workers = ref 2 and trials = ref 96 in
      let tenants = ref 1 and tcp = ref 0 in
      let kills = ref [] in
      let rec parse = function
        | [] -> ()
        | "--workers" :: n :: r -> workers := int_of_string n; parse r
        | "--trials" :: n :: r -> trials := int_of_string n; parse r
        | "--tenants" :: n :: r -> tenants := int_of_string n; parse r
        | "--tcp" :: n :: r -> tcp := int_of_string n; parse r
        | "--kills" :: ks :: r ->
            kills := List.map int_of_string (String.split_on_char ',' ks);
            parse r
        | n :: r -> name := n; parse r
      in
      parse rest;
      chaos_campaign !name ~workers:!workers ~tcp:!tcp
        ~tenants:(max 1 !tenants) ~kills:!kills ~trials:!trials
  | _ :: "seq-parity" :: rest ->
      seq_parity (match rest with [] -> [ "kmeans"; "kmeans@opt" ] | l -> l)
  | _ :: "ckpt-parity" :: rest ->
      let trials = ref 300 and names = ref [] in
      let rec parse = function
        | [] -> ()
        | "--trials" :: n :: r -> trials := int_of_string n; parse r
        | n :: r -> names := n :: !names; parse r
      in
      parse rest;
      ckpt_parity ~trials:!trials
        (match List.rev !names with [] -> [ "IS@opt"; "CG"; "MG" ] | l -> l)
  | _ :: "acl-parity" :: rest ->
      acl_parity (match rest with [] -> [ "LULESH" ] | l -> l)
  | _ :: "sites" :: _ -> sites ()
  | _ :: "radd" :: name :: _ ->
      let a = Registry.find name in
      let r = Static_detect.analyze (App.program a) in
      List.iter
        (fun (s : Static_detect.site) ->
          Printf.printf "%s pc %d line %d region %d\n" s.Static_detect.fname
            s.Static_detect.pc s.Static_detect.line s.Static_detect.region)
        r.Static_detect.repeated_adds
  | _ -> sanity ()
