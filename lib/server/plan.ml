(** Campaign plans: everything a campaign needs that is expensive to
    compute and a pure function of the app spelling — the baked
    program, the golden (fault-free) run's instruction count and
    output, and the whole-program fault-site population.

    A cold plan bakes the app (for [@opt] spellings, the optimizer
    pipeline) and then makes one fault-free run whose events stream
    into the site collector ({!Campaign.streamed_whole_program_target}):
    the golden run and the sites come from the same run, and no trace
    is ever stored (for IS@opt it would hold 148k events).

    Plans live here, outside {!Server}, so that {e workers} can
    rebuild them too.  A multi-tenant pool cannot rely on the
    fork-time copy-on-write image (a worker outlives
    any single campaign and serves campaigns submitted after it was
    forked — or, for a TCP worker, runs in a different process on a
    different machine entirely), so every worker reconstructs the trial
    kernel from the ~hundred-byte {!Campaign.spec} on the wire, warmed
    by the same content-addressed {!Cache} the server uses.  Because a
    plan is a pure function of the app spelling, and the trial kernel a
    pure function of (plan, config, index), a trial computes the same
    outcome no matter which process — server, forked worker, remote
    worker — evaluates it; that is the byte-identity contract. *)

type plan = {
  pl_app : string;
  pl_prog : Prog.t;
  pl_target : Campaign.target;
  pl_clean_instructions : int;
  pl_golden_output : string;
}

(* v2: the marshaled [Campaign.target] and [Instr.intr] types grew
   constructors for the microarchitectural surfaces; a v1 cache entry
   must not be deserialized under the new layout. *)
let plan_key (app : string) : string = Cache.key ("plan:v2:" ^ app)

(* Each process keeps the plans it has built or loaded, keyed by app
   spelling: a repeat submission costs no [Cache.load], every campaign
   on an app shares one program (so {!Compiled.plan_for} takes its
   physical-identity fast path), and a long-lived server or worker holds
   one copy of a plan instead of one per campaign.  Forked workers
   inherit the server's table.  Bounded like {!Compiled}'s plan cache:
   plans are pure values, so resetting the table at the cap only costs
   reloads. *)
let memo : (string, plan) Hashtbl.t = Hashtbl.create 8
let memo_mutex = Mutex.create ()
let memo_cap = 16

let build ?(cache_dir : string option) (appname : string) :
    (plan, string) result =
  let cached =
    Option.bind cache_dir (fun dir ->
        (Cache.load ~dir ~key:(plan_key appname) : plan option))
  in
  match cached with
  | Some p -> Ok p
  | None -> (
      match Fliptracker.resolve_app appname with
      | Error e -> Error e
      | Ok app -> (
          match
            let clean, target = Fliptracker.whole_program_target app in
            {
              pl_app = appname;
              pl_prog = App.program app;
              pl_target = target;
              pl_clean_instructions = clean.Machine.instructions;
              pl_golden_output = clean.Machine.output;
            }
          with
          | exception e ->
              Error
                (Printf.sprintf "baking %s failed: %s" appname
                   (Printexc.to_string e))
          | plan ->
              Option.iter
                (fun dir ->
                  ignore (Cache.store ~dir ~key:(plan_key appname) plan))
                cache_dir;
              Ok plan))

let plan_of_app ?(cache_dir : string option) (appname : string) :
    (plan, string) result =
  match Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo appname) with
  | Some p -> Ok p
  | None ->
      let r = build ?cache_dir appname in
      Result.iter
        (fun p ->
          Mutex.protect memo_mutex (fun () ->
              if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
              Hashtbl.replace memo appname p))
        r;
      r

(** The injection target a plan exposes for a declared structure: the
    cached whole-program (register-file) target for [Reg], or a
    structural target rebuilt from the plan's program — cheap relative
    to baking, and never trace-dependent. *)
let target_of_plan (plan : plan) (s : Structure.t) : Campaign.target =
  match s with
  | Structure.Reg -> plan.pl_target
  | Structure.Cache_tag ->
      Campaign.cache_target ~meta:true plan.pl_prog
        ~clean_instructions:plan.pl_clean_instructions
  | Structure.Cache_data ->
      Campaign.cache_target ~meta:false plan.pl_prog
        ~clean_instructions:plan.pl_clean_instructions
  | Structure.Istore -> Campaign.istore_target plan.pl_prog

(** The executor spec of a campaign over a plan, built by
    {!Campaign.executor_spec} like {!Campaign.run_report}'s own: the
    byte-identity contract with [--jobs 1]. *)
let campaign_spec (plan : plan) (ccfg : Campaign.config) :
    Campaign.outcome_class Executor.spec =
  Campaign.executor_spec plan.pl_prog
    ~verify:(fun r -> App.verified r.Machine.output)
    ~clean_instructions:plan.pl_clean_instructions ~cfg:ccfg
    (target_of_plan plan ccfg.Campaign.structure)

let spec_of_submission ?cache_dir (spec : Campaign.spec) :
    (Campaign.outcome_class Executor.spec, string) result =
  match plan_of_app ?cache_dir spec.Campaign.sp_app with
  | Error e -> Error e
  | Ok plan -> Ok (campaign_spec plan (Campaign.config_of_spec spec))
