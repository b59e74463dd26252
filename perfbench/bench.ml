(* The repository benchmark.  Two closed-loop workloads, each keeping
   one part of the program busy:

     served-isopt   the IS@opt campaign submitted to a forked server
     mine-lulesh    Table I pattern mining on LULESH

   The traced run of served-isopt also runs the same campaign in this
   process, through the executor, for the engine's layers.

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   records spans around the benchmark's own calls into each layer and
   reports per-layer metrics.  Every run checks its outputs.  The last
   line of standard output is the JSON result.  README.md explains the
   workloads and which end-to-end metric each layer metric moves. *)

let nproc = Domain.recommended_domain_count ()
let now = Span.now

(* where runs keep their counters and spans *)
let out_dir = ".perfbench"
let campaign_seed = 42
let mining_seed = 11

(* Table I mining uses the default effort: 8 injections per region,
   half internal and half input; call k of a run mines with seed + k *)
let mine_effort = Effort.default
let mine_injections = mine_effort.Effort.acl_injections

(* set-up is measured this many times in forked children, plus once in
   the benchmark process itself *)
let setup_probes = 10

(* trials a fresh-server set-up probe submits *)
let probe_trials = 64

(* ---------------------------------------------------------------------- *)
(* Small helpers *)

let sorted l = List.sort Float.compare l

let quantile l q =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (Float.of_int n *. q)))

let median l =
  match sorted l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let resolve name =
  match Fliptracker.resolve_app name with
  | Ok a -> a
  | Error e -> failwith e

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* peak resident set of a process, from /proc *)
let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb ->
                   Float.of_int kb /. 1024.0)
             else None)
      |> Option.value ~default:0.0

let children_of pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some p -> (
             match read_file (Printf.sprintf "/proc/%d/stat" p) with
             | exception Sys_error _ -> None
             | s -> (
                 (* the command name may hold spaces: parse after ')' *)
                 let rest =
                   String.sub s (String.rindex s ')' + 2)
                     (String.length s - String.rindex s ')' - 2)
                 in
                 match String.split_on_char ' ' rest with
                 | _state :: ppid :: _ when int_of_string_opt ppid = Some pid
                   ->
                     Some p
                 | _ -> None)))

(* ---------------------------------------------------------------------- *)
(* Outcome checks: failed operations are counted against units attempted *)

let attempted = ref 0
let failed = ref 0

let fail ~units fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + units;
      prerr_endline ("check failed: " ^ msg))
    fmt

let counts_string c = Format.asprintf "%a" Campaign.pp_counts c

let same_counts a b =
  String.equal
    (Csexp.to_string (Campaign.counts_to_csexp a))
    (Csexp.to_string (Campaign.counts_to_csexp b))

(* the counts each campaign workload must reproduce at the default seed *)
let pinned_counts app seed =
  if seed <> campaign_seed then None
  else
    match app with
    | "IS@opt" -> Some (471, 296, 300)
    | _ -> None

(* every completed campaign: no infra errors, the full design ran, the
   counts repeat within the run and match the pinned ones *)
let check_campaign ~what ~app ~seed ~planned ~first (c : Campaign.counts) =
  attempted := !attempted + planned;
  if c.Campaign.infra > 0 then
    fail ~units:c.Campaign.infra "%s: %d infra errors" what c.Campaign.infra;
  if c.Campaign.trials + c.Campaign.infra <> planned then
    fail
      ~units:(planned - c.Campaign.trials - c.Campaign.infra)
      "%s: %d of %d trials classified" what c.Campaign.trials planned;
  (match !first with
  | None -> first := Some c
  | Some f ->
      if not (same_counts f c) then
        fail ~units:c.Campaign.trials "%s: counts %s differ from %s" what
          (counts_string c) (counts_string f));
  match pinned_counts app seed with
  | Some (s, f, cr)
    when (c.Campaign.success, c.Campaign.failed, c.Campaign.crashed)
         <> (s, f, cr) ->
      fail ~units:c.Campaign.trials "%s: counts %s, pinned %d/%d/%d" what
        (counts_string c) s f cr
  | _ -> ()

(* ---------------------------------------------------------------------- *)
(* Rate: the median over the window's repetitions of the units each
   completed over the seconds it took.  Each repetition is timed whole,
   so its start-up and tail costs stay in; the median keeps a repetition
   that a burst on the shared host slowed from moving the figure. *)

type tally = { mutable rates : float list }

let tally () = { rates = [] }

let count tl ~units seconds =
  tl.rates <- (Float.of_int units /. seconds) :: tl.rates

let rate tl = median tl.rates

(* repeat [one] (one complete unit of repetition) for about [seconds]:
   another repetition starts while at least half of one (as long as the
   last) still fits.  [one] gets the repetition index.

   [peak] reads the peak resident set after [peak_after] repetitions,
   which every window runs, however long they take.  The server keeps
   every campaign it has loaded, and a mining call's footprint depends on
   its faults, so a reading taken after a fixed amount of work does not
   depend on how fast the host ran. *)
let window ?(peak = fun () -> 0.0) ?(peak_after = 1) ~seconds one =
  let t0 = now () in
  let k = ref 0 and last = ref 0.0 in
  let reading = ref 0.0 in
  while !k < peak_after || now () -. t0 +. (!last /. 2.0) < seconds do
    let t = now () in
    one !k;
    last := now () -. t;
    incr k;
    if !k = peak_after then reading := peak ()
  done;
  !reading

let self_peak () = vm_hwm_mb (Unix.getpid ())

(* ---------------------------------------------------------------------- *)
(* Set-up *)

(* run [f] with span recording off (the untraced half of a traced run) *)
let untraced f =
  Span.enabled := false;
  Fun.protect ~finally:(fun () -> Span.enabled := true) f

(* the app with its post-compile transform (the optimizer pipeline of an
   @opt variant) inside a span, so App.program's self time excludes it *)
let instrumented (app : App.t) : App.t =
  {
    app with
    App.transform =
      Option.map
        (fun t p -> Span.with_ "opt.pipeline" (fun () -> t p))
        app.App.transform;
  }

(* the two Compile.compile calls App.program makes, replayed outside it
   on the same ASTs (App.program does not expose them) *)
let replay_compile (app : App.t) =
  let calib = app.App.build ~ref_value:None in
  ignore (Span.with_ "lang.compile" (fun () -> Compile.compile calib));
  let full = app.App.build ~ref_value:(Some (App.reference_value app)) in
  ignore (Span.with_ "lang.compile" (fun () -> Compile.compile full))

type camp = {
  app : App.t;
  prog : Prog.t;
  clean : Machine.result;
  trace_events : int;
  target : Campaign.target;
}

let campaign_setup name =
  let app = instrumented (resolve name) in
  let prog = Span.with_ "apps.program" (fun () -> App.program app) in
  let clean, trace = Span.with_ "vm.trace" (fun () -> App.trace app) in
  let target =
    Span.with_ "faults.target" (fun () ->
        Campaign.whole_program_target prog trace)
  in
  let (_run : Machine.config -> Machine.result) =
    Span.with_ "vm.plan_compile" (fun () -> Backend.runner Backend.default prog)
  in
  let c = { app; prog; clean; trace_events = Trace.length trace; target } in
  Span.with_ "gc.settle" Gc.compact;
  c

let mining_setup () =
  let app = instrumented (resolve "LULESH") in
  ignore (Span.with_ "apps.program" (fun () -> App.program app));
  if !Span.enabled then begin
    (* Experiments.context builds these three internally; replay them
       outside it so each gets its own span *)
    let _, trace = Span.with_ "vm.trace" (fun () -> App.trace app) in
    ignore (Span.with_ "analysis.access" (fun () -> Access.build trace));
    ignore (Span.with_ "analysis.regions" (fun () -> Region.instances trace))
  end;
  let ctx = Span.with_ "experiments.context" (fun () -> Experiments.context app) in
  Span.with_ "gc.settle" Gc.compact;
  ctx

(* run [f] in a forked child and return the seconds it took there: a
   cold set-up, whatever the benchmark process has cached *)
let forked_seconds (f : unit -> unit) : float =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let t0 = now () in
      (match f () with
      | () ->
          let s = Printf.sprintf "%.9f" (now () -. t0) in
          ignore (Unix.write_substring w s 0 (String.length s));
          Unix._exit 0
      | exception e ->
          prerr_endline ("set-up probe: " ^ Printexc.to_string e);
          Unix._exit 2)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> float_of_string s
      | _ -> failwith "set-up probe failed")

(* ---------------------------------------------------------------------- *)
(* The trial kernel, replayed trial by trial with public calls *)

type kernel = {
  k_counts : Campaign.counts;
  k_trials : int;
  k_instr : int;
  k_words : float;
  k_hang_s : float;
}

let kernel_replay ?(limit = max_int) (c : camp) ~seed =
  let cfg = { Campaign.default_config with seed } in
  let n = min limit (Campaign.trials_for cfg c.target) in
  let budget = cfg.Campaign.budget_factor * max 1 c.clean.Machine.instructions in
  let run = Backend.runner Backend.default c.prog in
  let verify = App.verify c.app in
  let instr = ref 0 and words = ref 0.0 and hang = ref 0.0 in
  let counts = ref Campaign.zero_counts in
  for i = 0 to n - 1 do
    let t0 = now () in
    let hung = ref false in
    let o =
      Span.with_ "faults.trial" (fun () ->
          let fault =
            Span.with_ "faults.sample" (fun () ->
                Campaign.sample_fault (Rng.derive ~seed ~index:i) c.target)
          in
          let timed_run conf =
            Span.with_ "vm.compiled.run" (fun () ->
                let w0 = Gc.minor_words () in
                let r = run conf in
                words := !words +. (Gc.minor_words () -. w0);
                instr := !instr + r.Machine.instructions;
                if r.Machine.outcome = Machine.Budget_exceeded then hung := true;
                r)
          in
          let timed_verify r = Span.with_ "faults.verify" (fun () -> verify r) in
          Campaign.run_one_with timed_run ~budget ~verify:timed_verify fault)
    in
    if !hung then hang := !hang +. (now () -. t0);
    counts := Campaign.add_outcome !counts o
  done;
  { k_counts = !counts; k_trials = n; k_instr = !instr; k_words = !words; k_hang_s = !hang }

(* ---------------------------------------------------------------------- *)
(* Workload loops *)

(* a new path under the temporary directory (run.py points TMPDIR into
   the checkout) *)
let fresh_path =
  let k = ref 0 in
  fun stem ->
    incr k;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" stem (Unix.getpid ()) !k)

(* repeated Campaign.run_report calls at jobs = cores with a journal, as
   the server's campaigns run; returns the first campaign's counts *)
let campaign_loop (c : camp) ~seed ~seconds tl =
  let first = ref None in
  let cfg = { Campaign.default_config with seed } in
  let planned = Campaign.trials_for cfg c.target in
  ignore @@ window ~seconds (fun k ->
      let path = Some (fresh_path "journal") in
      let t0 = now () in
      let r =
        Campaign.run_report c.prog ~verify:(App.verify c.app)
          ~clean_instructions:c.clean.Machine.instructions ~cfg
          ~exec:{ Campaign.default_exec with jobs = nproc; journal = path }
          c.target
      in
      count tl ~units:r.Campaign.counts.Campaign.trials (now () -. t0);
      Option.iter rm_rf path;
      check_campaign
        ~what:(Printf.sprintf "campaign %d" k)
        ~app:c.app.App.name ~seed ~planned ~first r.Campaign.counts);
  Option.get !first

(* the same campaigns through the executor directly, with each trial in
   a span: busy time per domain and the executor's own phase timers *)
type engine = {
  e_wall : float;
  e_busy : float;
  e_trials : int;
  e_journal_s : float;
  e_batches : int;
  e_minor : int;
  e_major : int;
}

let engine_loop (c : camp) ~seed ~seconds ~expect =
  let ccfg = { Campaign.default_config with seed } in
  let plan =
    {
      Plan.pl_app = c.app.App.name;
      pl_prog = c.prog;
      pl_target = c.target;
      pl_clean_instructions = c.clean.Machine.instructions;
      pl_golden_output = c.clean.Machine.output;
    }
  in
  let spec = Plan.campaign_spec plan ccfg in
  let obs = Obs.create () in
  let first = ref (Some expect) in
  let wall = ref 0.0 and trials = ref 0 and batches = ref 0 in
  let g0 = Gc.quick_stat () in
  ignore @@ window ~seconds (fun k ->
      let path = Some (fresh_path "journal") in
      let t0 = now () in
      Span.with_ "runtime.campaign" (fun () ->
          let parent = Span.innermost () in
          let last = ref (now ()) in
          let on_progress (_ : Executor.progress) =
            let t = now () in
            Span.record ~parent "runtime.batch" ~start:!last ~stop:t;
            last := t;
            incr batches
          in
          let traced =
            {
              spec with
              Executor.run_trial =
                (fun i ->
                  Span.with_ ~parent "runtime.trial" (fun () ->
                      spec.Executor.run_trial i));
            }
          in
          let r =
            Executor.run
              ~cfg:
                {
                  Executor.default_config with
                  jobs = nproc;
                  batch = Campaign.default_exec.Campaign.batch;
                  journal = path;
                  metrics = Some obs;
                  on_progress = Some on_progress;
                }
              traced
          in
          let counts = Campaign.counts_of_outcomes r.Executor.outcomes in
          trials := !trials + counts.Campaign.trials;
          check_campaign
            ~what:(Printf.sprintf "traced campaign %d" k)
            ~app:c.app.App.name ~seed ~planned:spec.Executor.total ~first
            counts);
      wall := !wall +. (now () -. t0);
      Option.iter rm_rf path);
  let g1 = Gc.quick_stat () in
  {
    e_wall = !wall;
    e_busy = Span.total "runtime.trial";
    e_trials = !trials;
    e_journal_s = Option.value ~default:0.0 (Obs.phase_wall obs "executor/journal");
    e_batches = !batches;
    e_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    e_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* ---- the server *)

let isopt_spec seed ~trials =
  {
    Campaign.default_spec with
    Campaign.sp_app = "IS@opt";
    sp_seed = seed;
    sp_trials = trials;
  }

type server = { pid : int; socket : string; root : string }

let start_server () =
  let root = fresh_path "server" in
  mkdir_p root;
  (* a relative socket path: the checkout's absolute path may be longer
     than a Unix socket address allows *)
  let socket =
    Filename.concat (Filename.concat out_dir "tmp") (Filename.basename root ^ ".sock")
  in
  let cfg =
    {
      Server.default_config with
      Server.workers = nproc;
      journal_dir = Some (Filename.concat root "journal");
    }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try
         Server.serve ~cfg ~cache_dir:(Filename.concat root "cache") ~socket ()
       with e ->
         prerr_endline ("server: " ^ Printexc.to_string e);
         Unix._exit 2);
      Unix._exit 0
  | pid ->
      let t0 = now () in
      while (not (Sys.file_exists socket)) && now () -. t0 < 30.0 do
        Unix.sleepf 0.005
      done;
      { pid; socket; root }

let stop_server s =
  (match Client.shutdown ~socket:s.socket () with
  | Ok () -> ()
  | Error e -> prerr_endline ("server shutdown: " ^ Client.error_message e));
  (match Unix.waitpid [] s.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail ~units:1 "server exited abnormally");
  rm_rf s.root

let with_server f =
  let s = start_server () in
  Fun.protect ~finally:(fun () -> stop_server s) (fun () -> f s)

type submission = {
  s_counts : Campaign.counts option;
  s_accept_s : float;
  s_first_progress_s : float;
  s_stolen : int;
  s_seconds : float;  (** submit to result *)
}

(* one closed-loop submission over one connection *)
let submit s spec =
  let t0 = now () in
  let accepted = ref 0.0 and first = ref 0.0 and stolen = ref 0 in
  let r =
    Client.submit ~socket:s.socket
      ~on_accepted:(fun _ -> accepted := now () -. t0)
      ~on_progress:(fun ~completed:_ ~planned:_ ~stolen:st ->
        if !first = 0.0 then first := now () -. t0;
        stolen := st)
      spec
  in
  let s_seconds = now () -. t0 in
  match r with
  | Ok (_, counts) ->
      {
        s_counts = Some counts;
        s_accept_s = !accepted;
        s_first_progress_s = !first;
        s_stolen = !stolen;
        s_seconds;
      }
  | Error e ->
      prerr_endline ("submission: " ^ Client.error_message e);
      {
        s_counts = None;
        s_accept_s = 0.0;
        s_first_progress_s = 0.0;
        s_stolen = !stolen;
        s_seconds;
      }

(* a cold server's time from submit to the first progress frame *)
let served_setup_probe seed =
  let sub =
    with_server (fun s -> submit s (isopt_spec seed ~trials:(Some probe_trials)))
  in
  if sub.s_counts = None then failwith "set-up probe submission failed";
  sub.s_first_progress_s

(* the first submission to a fresh server (a cold plan), checked *)
let cold_submission s ~seed ~first =
  let sub = submit s (isopt_spec seed ~trials:None) in
  match sub.s_counts with
  | None -> failwith "the first submission failed"
  | Some c ->
      let planned = c.Campaign.trials + c.Campaign.infra in
      check_campaign ~what:"submission 0" ~app:"IS@opt" ~seed ~planned ~first c;
      (sub, planned)

(* warm submissions; returns the last progress frame's steal count and
   the summed peak resident set of the server and its workers *)
let served_loop s ~seed ~seconds ~planned ~first tl =
  let stolen = ref 0 in
  let peak () =
    List.fold_left (fun a p -> a +. vm_hwm_mb p) (vm_hwm_mb s.pid) (children_of s.pid)
  in
  let peak =
    window ~peak ~peak_after:3 ~seconds (fun k ->
      let sub = submit s (isopt_spec seed ~trials:None) in
      stolen := sub.s_stolen;
      match sub.s_counts with
      | None ->
          count tl ~units:0 sub.s_seconds;
          attempted := !attempted + planned;
          fail ~units:planned "submission %d refused or lost" k
      | Some c ->
          count tl ~units:c.Campaign.trials sub.s_seconds;
          check_campaign ~what:(Printf.sprintf "submission %d" k) ~app:"IS@opt"
            ~seed ~planned ~first c)
  in
  (!stolen, peak)

(* ---- mining *)

(* pattern counts per region, as "region:DCL=3,RA=1;..." *)
let mined_string (rows : (string * (Pattern.t * int) list) list) =
  rows
  |> List.map (fun (region, counts) ->
         region ^ ":"
         ^ String.concat ","
             (List.map
                (fun (p, n) -> Printf.sprintf "%s=%d" (Pattern.to_string p) n)
                counts))
  |> String.concat ";"

let mined_of_rows rows =
  mined_string
    (List.map (fun r -> (r.Experiments.t1_region, r.Experiments.t1_counts)) rows)

(* pattern counts pinned for the default seed *)
let pinned_mining = "l_a:DCL=428,RA=1510,DO=22075"

let mining_seed_of ~seed k = seed + k

(* each region's name and the injection targets Table I uses for it *)
type mine_target = {
  mt_region : string;
  mt_rid : int;
  mt_sites : (Campaign.target * Campaign.target) option;  (** internal, input *)
}

let mine_targets (ctx : Experiments.app_ctx) =
  let open Experiments in
  List.init (Array.length ctx.prog.Prog.region_table) (fun rid ->
      {
        mt_region = ctx.prog.Prog.region_table.(rid).Prog.rname;
        mt_rid = rid;
        mt_sites =
          Option.map
            (fun inst ->
              ( Campaign.internal_target ctx.prog ctx.trace inst,
                Campaign.input_target ctx.prog ctx.trace ctx.access inst ))
            (Region.find_instance ctx.trace ~rid ~number:0);
      })

(* the faults one Table I call injects into each region: the same draws
   from the same generator, in the same expression shape (and so the
   same evaluation order) as Experiments.table1 *)
let mine_faults targets ~seed =
  let rng = Rng.create ~seed in
  List.map
    (fun t ->
      match t.mt_sites with
      | None -> (t, [])
      | Some (internal, input) ->
          let n_input = mine_injections / 2 in
          let n_internal = mine_injections - n_input in
          let observe target n =
            List.init n (fun _ -> Campaign.sample_fault rng target)
          in
          ( t,
            observe internal n_internal
            @
            if Campaign.target_population input > 0 then observe input n_input
            else [] ))
    targets

(* Table I calls with seeds seed, seed+1, ...; the rate counts each
   call's injections over the seconds the call took.  The peak is read
   after three calls: one call's footprint depends on its faults, and
   the largest of three varies less from seed to seed *)
let mining_loop (ctx : Experiments.app_ctx) ~seed ~seconds tl results =
  (* every call makes as many injections; only the faults depend on the seed *)
  let injections =
    List.fold_left (fun a (_, fs) -> a + List.length fs) 0
      (mine_faults (mine_targets ctx) ~seed)
  in
  window ~peak:self_peak ~peak_after:3 ~seconds (fun k ->
      let s = mining_seed_of ~seed k in
      (* each call starts on a settled heap, as a single Table I run does *)
      Gc.compact ();
      let t0 = now () in
      let rows =
        Span.with_ "experiments.table1" (fun () ->
            Experiments.table1 ~effort:mine_effort ~seed:s ctx.Experiments.app)
      in
      count tl ~units:injections (now () -. t0);
      attempted := !attempted + injections;
      let m = mined_of_rows rows in
      Hashtbl.replace results s m;
      if s = mining_seed && not (String.equal m pinned_mining) then
        fail ~units:injections "mining seed %d: pattern counts %s, pinned %s" s m
          pinned_mining)

type mine_replay = {
  mr_injections : int;
  mr_events : int;
  mr_words : float;
  mr_mined : string;
  mr_found : int;
}

(* one Table I call replayed with public calls: the same faults, each
   injection a traced interpreter run, an ACL analysis and detection *)
let mine_replay (ctx : Experiments.app_ctx) faults =
  let open Experiments in
  let budget = 10 * ctx.clean.Machine.instructions in
  let injections = ref 0 and events = ref 0 and words = ref 0.0 in
  let rows =
    List.map
      (fun (t, fs) ->
        if t.mt_sites = None then (t.mt_region, [])
        else
          let observations =
            List.map
              (fun fault ->
                let w0 = Gc.minor_words () in
                let _, faulty =
                  Span.with_ "vm.interp.trace" (fun () ->
                      App.trace_with_fault ctx.app fault ~budget)
                in
                words := !words +. (Gc.minor_words () -. w0);
                incr injections;
                events := !events + Trace.length faulty;
                let acl =
                  Span.with_ "analysis.acl" (fun () ->
                      Acl.analyze ~fault ~clean:ctx.trace ~faulty ())
                in
                Span.with_ "patterns.detect" (fun () -> Dynamic_detect.of_acl acl))
              fs
          in
          let merged =
            Span.with_ "patterns.detect" (fun () -> Dynamic_detect.merge observations)
          in
          let counts =
            match
              List.find_opt
                (fun (rp : Dynamic_detect.region_patterns) -> rp.rid = t.mt_rid)
                merged
            with
            | Some rp -> rp.counts
            | None -> []
          in
          (t.mt_region, counts))
      faults
  in
  {
    mr_injections = !injections;
    mr_events = !events;
    mr_words = !words;
    mr_mined = mined_string rows;
    mr_found =
      List.fold_left (fun a (_, l) -> List.fold_left (fun a (_, n) -> a + n) a l) 0 rows;
  }

(* ---------------------------------------------------------------------- *)
(* Results *)

(* every per-layer metric, in BENCHMARK.json's order; a workload that
   does not exercise a layer reports 0 for it (see README.md) *)
let layer_metrics =
  [
    ("lang.compile_s", "s"); ("apps.bake_s", "s"); ("opt.pipeline_s", "s");
    ("vm.trace_s", "s"); ("vm.trace_events", "count");
    ("faults.target_s", "s"); ("vm.plan_compile_s", "s");
    ("analysis.access_s", "s"); ("analysis.regions_s", "s");
    ("server.accept_s", "s"); ("server.first_progress_s", "s");
    ("faults.sample_us", "us"); ("vm.compiled.ns_per_instr", "ns");
    ("faults.verify_us", "us"); ("faults.trial_p50_us", "us");
    ("faults.trial_p99_us", "us"); ("faults.trial_samples", "count");
    ("faults.hang_time_share", "ratio");
    ("vm.compiled.instr_per_trial", "count");
    ("vm.compiled.minor_words_per_trial", "words");
    ("gc.minor_per_kunit", "count"); ("gc.major_per_kunit", "count");
    ("runtime.busy_s", "s"); ("runtime.idle_s", "s"); ("runtime.util", "ratio");
    ("runtime.journal_s", "s"); ("runtime.batches", "count");
    ("server.overhead_ratio", "ratio"); ("server.wire_rtt_p50_us", "us");
    ("server.wire_rtt_p99_us", "us"); ("server.stolen", "count");
    ("vm.interp.trace_ns_per_event", "ns");
    ("vm.interp.minor_words_per_event", "words");
    ("analysis.acl_ns_per_event", "ns");
    ("analysis.events_per_injection", "count"); ("patterns.detect_us", "us");
    ("gc.top_heap_mb", "MB"); ("trace.overhead", "ratio");
  ]

let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace layer name v

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let print_result metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        (name, json_object [ ("value", json_number v); ("unit", Printf.sprintf "%S" unit) ]))
      metrics
  in
  print_endline
    (json_object
       [
         ("correct", if !failed = 0 && !attempted > 0 then "true" else "false");
         ("attempted", string_of_int (max 1 !attempted));
         ("failed", string_of_int !failed);
         ("metrics", json_object m);
       ])

(* exact work counters: printed beside the end-to-end metrics and kept
   per (workload, seed, build); a run whose counters differ from an
   earlier run of the same build and seed fails its check *)
let record_counters ~workload ~seed counters =
  let line =
    json_object (List.map (fun (k, v) -> (k, json_number v)) counters)
  in
  print_endline (json_object [ ("counters", line) ]);
  let dir = Filename.concat out_dir "counters" in
  mkdir_p dir;
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat dir (Printf.sprintf "%s-%d-%s.json" workload seed build) in
  if Sys.file_exists path then begin
    let before = String.trim (read_file path) in
    if not (String.equal before line) then
      fail ~units:1 "work counters %s differ from an earlier run's %s" line before
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc (line ^ "\n"))

let e2e ~rate ~setup ~peak =
  [ ("rate_per_s", rate, "1/s"); ("setup_s", setup, "s"); ("peak_rss_mb", peak, "MB") ]

let setup_median ~own probes = median (own :: probes)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------------------------------------------------------------- *)
(* Untraced runs: the end-to-end metrics *)

let served_untraced ~seed ~seconds =
  let probes = List.init setup_probes (fun _ -> served_setup_probe seed) in
  let first = ref None in
  let tl = tally () in
  let first_sub, peak =
    with_server (fun s ->
        let sub, planned = cold_submission s ~seed ~first in
        let _stolen, peak = served_loop s ~seed ~seconds ~planned ~first tl in
        (sub, peak))
  in
  (* the same campaign in-process must give byte-identical counts *)
  let c = campaign_setup "IS@opt" in
  let r =
    Campaign.run_report c.prog ~verify:(App.verify c.app)
      ~clean_instructions:c.clean.Machine.instructions
      ~cfg:{ Campaign.default_config with seed }
      ~exec:{ Campaign.default_exec with jobs = nproc }
      c.target
  in
  let served = Option.get !first in
  if not (same_counts served r.Campaign.counts) then
    fail ~units:served.Campaign.trials "served counts %s, in-process %s"
      (counts_string served) (counts_string r.Campaign.counts);
  let k = kernel_replay ~limit:128 c ~seed in
  record_counters ~workload:"served-isopt" ~seed
    [
      ("trials_per_campaign", Float.of_int served.Campaign.trials);
      ("success", Float.of_int served.Campaign.success);
      ("failed", Float.of_int served.Campaign.failed);
      ("crashed", Float.of_int served.Campaign.crashed);
      ("instr_per_trial_first_128", Float.of_int k.k_instr /. Float.of_int k.k_trials);
      (* the replay runs on this domain alone, so its minor words are exact *)
      ("minor_words_per_trial_first_128", k.k_words /. Float.of_int k.k_trials);
    ];
  e2e ~rate:(rate tl)
    ~setup:(setup_median ~own:first_sub.s_first_progress_s probes)
    ~peak

let mining_untraced ~seed ~seconds =
  let probes =
    List.init setup_probes (fun _ -> forked_seconds (fun () -> ignore (mining_setup ())))
  in
  let ctx, own = timed mining_setup in
  let tl = tally () in
  let results = Hashtbl.create 8 in
  let peak = mining_loop ctx ~seed ~seconds tl results in
  let r = mine_replay ctx (mine_faults (mine_targets ctx) ~seed) in
  if not (String.equal r.mr_mined (Hashtbl.find results seed)) then
    fail ~units:r.mr_injections "replayed patterns %s, Table I %s" r.mr_mined
      (Hashtbl.find results seed);
  record_counters ~workload:"mine-lulesh" ~seed
    [
      ("injections_per_call", Float.of_int r.mr_injections);
      ("events_per_injection", Float.of_int r.mr_events /. Float.of_int r.mr_injections);
      ("patterns_found", Float.of_int r.mr_found);
    ];
  e2e ~rate:(rate tl) ~setup:(setup_median ~own probes) ~peak

(* ---------------------------------------------------------------------- *)
(* Traced runs: the per-layer metrics *)

let set_setup_layers () =
  set "lang.compile_s" (Span.total "lang.compile");
  set "apps.bake_s" (Span.self_time "apps.program");
  set "opt.pipeline_s" (Span.total "opt.pipeline");
  set "vm.trace_s" (Span.total "vm.trace");
  set "faults.target_s" (Span.total "faults.target");
  set "vm.plan_compile_s" (Span.total "vm.plan_compile");
  set "analysis.access_s" (Span.total "analysis.access");
  set "analysis.regions_s" (Span.total "analysis.regions")

let set_kernel_layers (k : kernel) =
  let n = Float.of_int k.k_trials in
  let trial_us = List.map (fun d -> d *. 1e6) (Span.durations "faults.trial") in
  set "faults.sample_us" (Span.total "faults.sample" /. n *. 1e6);
  set "vm.compiled.ns_per_instr"
    (Span.total "vm.compiled.run" /. Float.of_int k.k_instr *. 1e9);
  set "faults.verify_us" (Span.total "faults.verify" /. n *. 1e6);
  set "faults.trial_p50_us" (median trial_us);
  set "faults.trial_p99_us" (quantile trial_us 0.99);
  set "faults.trial_samples" n;
  set "faults.hang_time_share" (k.k_hang_s /. Span.total "faults.trial");
  set "vm.compiled.instr_per_trial" (Float.of_int k.k_instr /. n);
  set "vm.compiled.minor_words_per_trial" (k.k_words /. n)

let top_heap_mb () =
  Float.of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0

let set_gc_layers ~units ~minor ~major =
  set "gc.minor_per_kunit" (Float.of_int minor /. Float.of_int units *. 1000.0);
  set "gc.major_per_kunit" (Float.of_int major /. Float.of_int units *. 1000.0)

(* a lease-sized message bounced over a socket pair *)
let wire_rtts n =
  let a, b = Wire.pair () in
  let msg =
    Proto.to_worker_to_csexp
      (Proto.Lease { cid = "c0001-0123456789"; batch = 7; lo = 112; hi = 128 })
  in
  let samples =
    List.init n (fun _ ->
        Span.with_ "server.wire_rtt" (fun () ->
            let t0 = now () in
            Wire.send a msg;
            Wire.send b (Wire.recv b ~timeout_s:10.0);
            if Wire.recv a ~timeout_s:10.0 <> msg then
              fail ~units:1 "wire round trip changed the message";
            (now () -. t0) *. 1e6))
  in
  Wire.close a;
  Wire.close b;
  samples

(* four quarter windows: served untraced, served traced, then after the
   server has shut down the same campaign in this process, untraced (for
   the overhead ratio) and through the executor with each trial in a span
   (for the engine's layers) *)
let served_traced ~seed ~seconds =
  let first = ref None in
  let quarter = seconds /. 4.0 in
  let tl_u = tally () and tl_t = tally () in
  let stolen =
    with_server (fun s ->
        let sub, planned =
          Span.with_ "server.cold_submission" (fun () -> cold_submission s ~seed ~first)
        in
        set "server.accept_s" sub.s_accept_s;
        set "server.first_progress_s" sub.s_first_progress_s;
        ignore (untraced (fun () -> served_loop s ~seed ~seconds:quarter ~planned ~first tl_u));
        fst
          (Span.with_ "server.window" (fun () ->
               served_loop s ~seed ~seconds:quarter ~planned ~first tl_t)))
  in
  set "server.stolen" (Float.of_int stolen);
  set "trace.overhead" (rate tl_t /. rate tl_u);
  (* the plan the server builds, replayed in this process *)
  let c = campaign_setup "IS@opt" in
  replay_compile c.app;
  set_setup_layers ();
  set "vm.trace_events" (Float.of_int c.trace_events);
  let k = kernel_replay c ~seed in
  set_kernel_layers k;
  let tl_p = tally () in
  let par = untraced (fun () -> campaign_loop c ~seed ~seconds:quarter tl_p) in
  let served = Option.get !first in
  if not (same_counts served par && same_counts served k.k_counts) then
    fail ~units:served.Campaign.trials "served counts %s, in-process %s, replay %s"
      (counts_string served) (counts_string par) (counts_string k.k_counts);
  set "server.overhead_ratio" (rate tl_u /. rate tl_p);
  let e = engine_loop c ~seed ~seconds:quarter ~expect:par in
  set_gc_layers ~units:e.e_trials ~minor:e.e_minor ~major:e.e_major;
  let capacity = e.e_wall *. Float.of_int nproc in
  set "runtime.busy_s" e.e_busy;
  set "runtime.idle_s" (capacity -. e.e_busy);
  set "runtime.util" (e.e_busy /. capacity);
  set "runtime.journal_s" e.e_journal_s;
  set "runtime.batches" (Float.of_int e.e_batches);
  set "gc.top_heap_mb" (top_heap_mb ());
  let rtt = wire_rtts 2000 in
  set "server.wire_rtt_p50_us" (median rtt);
  set "server.wire_rtt_p99_us" (quantile rtt 0.99)

let mining_traced ~seed ~seconds =
  let ctx = mining_setup () in
  replay_compile ctx.Experiments.app;
  set_setup_layers ();
  set "vm.trace_events" (Float.of_int (Trace.length ctx.Experiments.trace));
  let half = seconds /. 2.0 in
  let tl_u = tally () in
  let results = Hashtbl.create 8 in
  ignore (untraced (fun () -> mining_loop ctx ~seed ~seconds:half tl_u results));
  let tl_t = tally () in
  let injections = ref 0 and events = ref 0 and words = ref 0.0 in
  let g0 = Gc.quick_stat () in
  ignore @@ window ~seconds:half (fun k ->
      let s = mining_seed_of ~seed k in
      Gc.compact ();
      (* the call's whole work, as Experiments.table1 does it: targets,
         fault draws, then the injections *)
      let t0 = now () in
      let r =
        Span.with_ "patterns.replay" (fun () ->
            let targets = Span.with_ "analysis.targets" (fun () -> mine_targets ctx) in
            mine_replay ctx (mine_faults targets ~seed:s))
      in
      count tl_t ~units:r.mr_injections (now () -. t0);
      attempted := !attempted + r.mr_injections;
      injections := !injections + r.mr_injections;
      events := !events + r.mr_events;
      words := !words +. r.mr_words;
      let expect =
        match Hashtbl.find_opt results s with
        | Some m -> m
        | None ->
            mined_of_rows
              (Experiments.table1 ~effort:mine_effort ~seed:s ctx.Experiments.app)
      in
      if not (String.equal r.mr_mined expect) then
        fail ~units:r.mr_injections "replayed patterns %s, Table I %s" r.mr_mined expect);
  let g1 = Gc.quick_stat () in
  let ev = Float.of_int !events in
  set "vm.interp.trace_ns_per_event" (Span.total "vm.interp.trace" /. ev *. 1e9);
  set "vm.interp.minor_words_per_event" (!words /. ev);
  set "analysis.acl_ns_per_event" (Span.total "analysis.acl" /. ev *. 1e9);
  set "analysis.events_per_injection" (ev /. Float.of_int !injections);
  set "patterns.detect_us" (Span.total "patterns.detect" /. Float.of_int !injections *. 1e6);
  set "gc.top_heap_mb" (top_heap_mb ());
  set_gc_layers ~units:!injections
    ~minor:(g1.Gc.minor_collections - g0.Gc.minor_collections)
    ~major:(g1.Gc.major_collections - g0.Gc.major_collections);
  set "trace.overhead" (rate tl_t /. rate tl_u)

(* ---------------------------------------------------------------------- *)

let workloads =
  [ "served-isopt"; "mine-lulesh" ]

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Int (fun s -> seed := Some s), " input seed (default 42; 11 for mine-lulesh)");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics from a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  let seed =
    match !seed with
    | Some s -> s
    | None -> if !workload = "mine-lulesh" then mining_seed else campaign_seed
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p (Filename.concat out_dir "tmp");
  let seconds = !seconds in
  if !trace = 0 then begin
    let metrics =
      match !workload with
      | "served-isopt" -> served_untraced ~seed ~seconds
      | _ -> mining_untraced ~seed ~seconds
    in
    print_result metrics
  end
  else begin
    List.iter (fun (name, _) -> set name 0.0) layer_metrics;
    Span.enabled := true;
    (match !workload with
    | "served-isopt" -> served_traced ~seed ~seconds
    | _ -> mining_traced ~seed ~seconds);
    Span.write
      (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload seed));
    print_result
      (List.map (fun (name, unit) -> (name, Hashtbl.find layer name, unit)) layer_metrics)
  end
