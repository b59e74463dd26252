(** Drivers for every figure and table of the paper's evaluation.

    Each driver returns plain data; the bench harness formats it.  See
    DESIGN.md for the per-experiment index. *)

(* --- shared plumbing --------------------------------------------------- *)

type app_ctx = {
  app : App.t;
  prog : Prog.t;
  clean : Machine.result;
  trace : Trace.t;
  access : Access.t;
  instances : Region.instance list;
}

let ctx_cache : (string, app_ctx) Hashtbl.t = Hashtbl.create 16

(** Fault-free traced context of an app, cached per app name. *)
let context (app : App.t) : app_ctx =
  match Hashtbl.find_opt ctx_cache app.App.name with
  | Some c -> c
  | None ->
      let clean, trace = App.trace app in
      let c =
        {
          app;
          prog = App.program app;
          clean;
          trace;
          access = Access.build trace;
          instances = Region.instances trace;
        }
      in
      Hashtbl.replace ctx_cache app.App.name c;
      c

let region_name (c : app_ctx) rid = c.prog.Prog.region_table.(rid).rname

(* instance 0 of region [rid], from the cached chain *)
let first_instance (c : app_ctx) rid =
  List.find_opt
    (fun (i : Region.instance) -> i.rid = rid && i.number = 0)
    c.instances

(** The faulty run of [app] under [fault] as a replay producer. *)
let faulty_replay (app : App.t) (fault : Machine.fault) ~(budget : int) :
    (Trace.event -> unit) -> unit =
 fun f -> ignore (App.replay_with_fault app fault ~budget f)

(** One injection's run result and ACL table.  The faulty run is run
    once, streaming into the analysis, so its trace is never kept. *)
let replay_acl (app : App.t) ~(clean : Trace.t) (fault : Machine.fault)
    ~(budget : int) : Machine.result * Acl.result =
  let result = ref None in
  let replay f = result := Some (App.replay_with_fault app fault ~budget f) in
  let acl = Acl.analyze_replay ~fault ~clean ~replay () in
  (Option.get !result, acl)

(* --- Figure 5: per-code-region success rates --------------------------- *)

type region_rates_row = {
  rr_app : string;
  rr_region : string;
  rr_internal : Campaign.counts;
  rr_input : Campaign.counts;
}

(** Fault injection into the first instance (iteration 0) of every code
    region: internal locations (instruction destinations) and input
    locations (DDDG input memory words at region entry). *)
let fig5 ?(effort = Effort.default) (app : App.t) : region_rates_row list =
  let c = context app in
  let verify = App.verify app in
  let nregions = Array.length c.prog.Prog.region_table in
  List.init nregions (fun rid ->
      match first_instance c rid with
      | None ->
          {
            rr_app = app.App.name;
            rr_region = region_name c rid;
            rr_internal = Campaign.zero_counts;
            rr_input = Campaign.zero_counts;
          }
      | Some inst ->
          let internal = Campaign.internal_target c.prog c.trace inst in
          let input = Campaign.input_target c.prog c.trace c.access inst in
          let run t =
            Campaign.run c.prog ~verify
              ~clean_instructions:c.clean.Machine.instructions
              ~cfg:effort.Effort.campaign ~exec:(Effort.exec effort) t
          in
          {
            rr_app = app.App.name;
            rr_region = region_name c rid;
            rr_internal = run internal;
            rr_input = run input;
          })

(* --- Figure 6: per-iteration success rates ----------------------------- *)

type iteration_rates_row = {
  ir_app : string;
  ir_iteration : int;
  ir_internal : Campaign.counts;
  ir_input : Campaign.counts;
}

(** The main loop treated as a single code region; one campaign per
    iteration (inputs = memory words the iteration reads before
    writing). *)
let fig6 ?(effort = Effort.default) (app : App.t) : iteration_rates_row list =
  let c = context app in
  let verify = App.verify app in
  let spans = Region.iteration_spans c.trace in
  List.map
    (fun (iter, (lo, hi)) ->
      let internal =
        Campaign.Internal { sites = Campaign.writing_sites c.prog c.trace ~lo ~hi }
      in
      let g = Dddg.build c.trace c.access ~lo ~hi in
      let input =
        Campaign.Input
          {
            entry_seq = (Trace.get c.trace lo).Trace.seq;
            sites =
              Dddg.input_mem_addrs g
              |> List.map (fun addr ->
                     let bits =
                       match Prog.type_of_addr c.prog addr with
                       | Some Ty.I64 -> 32
                       | Some Ty.F64 | None -> 64
                     in
                     { Campaign.addr; bits })
              |> Array.of_list;
          }
      in
      let run t =
        Campaign.run c.prog ~verify
          ~clean_instructions:c.clean.Machine.instructions
          ~cfg:effort.Effort.campaign ~exec:(Effort.exec effort) t
      in
      {
        ir_app = app.App.name;
        ir_iteration = iter;
        ir_internal = run internal;
        ir_input = run input;
      })
    spans

(* --- Figure 7: the ACL time series -------------------------------------- *)

type acl_series = {
  as_app : string;
  as_fault : Machine.fault;
  as_outcome : Machine.outcome;
  as_result : Acl.result;
}

(** Inject a fault into iteration [target_iter] of the app's main loop
    (counting from the end when negative, so [-3] is the paper's "last
    third iteration") and compute the ACL series.  Seeds are tried in
    order until an injection neither crashes immediately nor vanishes
    without propagating. *)
let fig7 ?(seed = 7) ?(target_iter = -3) ?(min_peak = 3) (app : App.t) :
    acl_series =
  let c = context app in
  let spans = Region.iteration_spans c.trace in
  let niters = List.length spans in
  let iter = if target_iter >= 0 then target_iter else niters + target_iter in
  let lo, hi = List.assoc iter spans in
  let sites = Campaign.writing_sites c.prog c.trace ~lo ~hi in
  let budget = 10 * c.clean.Machine.instructions in
  let rec attempt k rng =
    let fault = Campaign.sample_fault rng (Campaign.Internal { sites }) in
    let result, acl = replay_acl app ~clean:c.trace fault ~budget in
    if
      (acl.Acl.peak >= min_peak && result.Machine.outcome = Machine.Finished)
      || k > 50
    then
      { as_app = app.App.name; as_fault = fault; as_outcome = result.Machine.outcome;
        as_result = acl }
    else attempt (k + 1) rng
  in
  attempt 0 (Rng.create ~seed)

(* --- Table I: region inventory and patterns found ----------------------- *)

type table1_row = {
  t1_app : string;
  t1_region : string;
  t1_lines : int * int;
  t1_instr_per_iter : int;
  t1_counts : (Pattern.t * int) list;  (** observed instances, merged *)
}

(** Mine patterns per region: several internal injections per region,
    each analyzed with the ACL machinery; pattern observations are
    merged across injections. *)
let table1 ?(effort = Effort.default) ?(seed = 11) (app : App.t) :
    table1_row list =
  let c = context app in
  let budget = 10 * c.clean.Machine.instructions in
  let rng = Rng.create ~seed in
  let nregions = Array.length c.prog.Prog.region_table in
  List.init nregions (fun rid ->
      let info = c.prog.Prog.region_table.(rid) in
      match first_instance c rid with
      | None ->
          {
            t1_app = app.App.name;
            t1_region = info.rname;
            t1_lines = (info.line_lo, info.line_hi);
            t1_instr_per_iter = 0;
            t1_counts = [];
          }
      | Some inst ->
          (* the paper mines patterns from injections into both the
             internal and the input locations of the region instance *)
          let internal = Campaign.internal_target c.prog c.trace inst in
          let input = Campaign.input_target c.prog c.trace c.access inst in
          let n_input = effort.Effort.acl_injections / 2 in
          let n_internal = effort.Effort.acl_injections - n_input in
          let observe target n =
            List.init n (fun _ ->
                let fault = Campaign.sample_fault rng target in
                let _, acl = replay_acl app ~clean:c.trace fault ~budget in
                Dynamic_detect.of_acl acl)
          in
          let observations =
            observe internal n_internal
            @ (if Campaign.target_population input > 0 then observe input n_input
               else [])
          in
          let merged = Dynamic_detect.merge observations in
          let counts =
            match
              List.find_opt (fun (rp : Dynamic_detect.region_patterns) ->
                  rp.rid = rid)
                merged
            with
            | Some rp -> rp.counts
            | None -> []
          in
          {
            t1_app = app.App.name;
            t1_region = info.rname;
            t1_lines = (info.line_lo, info.line_hi);
            t1_instr_per_iter = Region.size inst;
            t1_counts = counts;
          })

(* --- Table II: repeated additions shrink the error magnitude ------------ *)

type table2_row = {
  t2_iteration : int;
  t2_correct : float;
  t2_faulty : float;
  t2_magnitude : float;
}

(** Flip bit [bit] of MG's u[3][3][3] (the u[10][10][10] analog) at the
    first V-cycle and sample the error magnitude at each iteration
    boundary. *)
let table2 ?(bit = 40) ?(element = [ 3; 3; 3 ]) () : table2_row list =
  let app = Mg.app in
  let c = context app in
  let addr = Prog.addr_of_element c.prog "u0" element in
  (* inject right after the first finest-level smoothing writes u0:
     entry of the first mg_d instance *)
  let rid_d = (Prog.region_by_name c.prog "mg_d").Prog.rid in
  let inst =
    match Region.find_instance c.trace ~rid:rid_d ~number:0 with
    | Some i -> i
    | None -> invalid_arg "table2: MG has no mg_d instance"
  in
  let seq = (Trace.get c.trace inst.hi).Trace.seq in
  let fault = Machine.Flip_mem { seq; addr; bit } in
  let budget = 10 * c.clean.Machine.instructions in
  let replay = faulty_replay app fault ~budget in
  Tolerance.magnitude_by_iteration ~fault ~clean:c.trace ~replay ~addr ()
  |> List.map (fun (it, cv, fv, m) ->
         {
           t2_iteration = it;
           t2_correct = Value.to_float cv;
           t2_faulty = Value.to_float fv;
           t2_magnitude = m;
         })

(* --- Table III: hardened CG ---------------------------------------------- *)

type table3_row = {
  t3_variant : string;
  t3_counts : Campaign.counts;       (** whole-program injections *)
  t3_sprnvc : Campaign.counts;       (** injections restricted to sprnvc *)
  t3_time_min : float;
  t3_time_max : float;
  t3_time_avg : float;
}

(** Whole-program campaigns + wall-clock timing for the CG variants of
    Use Case 1.  The paper uses a tighter statistical design here (99%
    / 1%). *)
let table3 ?(effort = Effort.default) () : table3_row list =
  List.map
    (fun (app : App.t) ->
      let c = context app in
      let verify = App.verify app in
      let target = Campaign.whole_program_target c.prog c.trace in
      let cfg =
        {
          effort.Effort.campaign with
          confidence = 0.99;
          margin = 0.01;
          (* the resilience deltas here are a few percent, so spend three
             times the usual trials on each variant *)
          max_trials =
            Option.map (fun m -> 3 * m) effort.Effort.campaign.Campaign.max_trials;
        }
      in
      let counts =
        Campaign.run c.prog ~verify
          ~clean_instructions:c.clean.Machine.instructions ~cfg
          ~exec:(Effort.exec effort) target
      in
      (* the hardened code is a small fraction of CG's execution, so
         the whole-program rate moves little; the targeted campaign —
         soft errors landing in the global v/iv arrays while sprnvc
         runs, exactly the corruption the Figure 12(b) transformation
         overwrites — shows the effect directly *)
      let sprnvc =
        Campaign.run c.prog ~verify
          ~clean_instructions:c.clean.Machine.instructions ~cfg
          ~exec:(Effort.exec effort)
          (Campaign.memory_during_function_target c.prog c.trace
             ~fname:"sprnvc" ~vars:[ "v"; "iv" ])
      in
      let times =
        Array.init effort.Effort.timing_runs (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (Machine.run_plain c.prog);
            Unix.gettimeofday () -. t0)
      in
      let mn = Array.fold_left Float.min times.(0) times in
      let mx = Array.fold_left Float.max times.(0) times in
      {
        t3_variant = app.App.name;
        t3_counts = counts;
        t3_sprnvc = sprnvc;
        t3_time_min = mn;
        t3_time_max = mx;
        t3_time_avg = Stats.mean times;
      })
    Registry.cg_variants

(* --- Table IV: predicting application resilience ------------------------- *)

type table4_row = {
  t4_app : string;
  t4_rates : Rates.t;
  t4_measured : float;
  t4_predicted : float;  (** leave-one-out prediction *)
  t4_error : float;      (** relative prediction error *)
  t4_weighted_predicted : float;
      (** LOO prediction from masking-probability-weighted rates (the
          paper's future-work refinement) *)
  t4_weighted_error : float;
}

type table4 = {
  rows : table4_row list;
  r_square : float;           (** of the full fit *)
  std_coefficients : float array;  (** standardized, full fit *)
  weighted_loo_error : float;  (** mean LOO error with weighted features *)
  unweighted_loo_error : float;
}

let table4 ?(effort = Effort.default) ?(apps = Registry.all) () : table4 =
  let measured =
    List.map
      (fun (app : App.t) ->
        let c = context app in
        let verify = App.verify app in
        let rates = Rates.compute c.trace c.access in
        let wrates = Weighted_rates.compute c.trace c.access in
        let target = Campaign.whole_program_target c.prog c.trace in
        let counts =
          Campaign.run c.prog ~verify
            ~clean_instructions:c.clean.Machine.instructions
            ~cfg:effort.Effort.campaign ~exec:(Effort.exec effort) target
        in
        (app.App.name, rates, wrates, Campaign.success_rate counts))
      apps
  in
  let x =
    Array.of_list (List.map (fun (_, r, _, _) -> Rates.to_vector r) measured)
  in
  let xw =
    Array.of_list
      (List.map (fun (_, _, w, _) -> Weighted_rates.to_vector w) measured)
  in
  let y = Array.of_list (List.map (fun (_, _, _, sr) -> sr) measured) in
  (* the paper's Bayesian linear model implies a prior strength; choose
     it by leave-one-out error over a grid (ten samples cannot support
     six free coefficients without it) *)
  let lambda =
    let candidates = [ 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 ] in
    let loo_err l =
      let p = Regression.leave_one_out ~lambda:l x y in
      let s = ref 0.0 in
      Array.iteri
        (fun i yi ->
          s := !s +. Regression.relative_error ~measured:yi ~predicted:p.(i))
        y;
      !s
    in
    List.fold_left
      (fun (best, best_err) l ->
        let e = loo_err l in
        if e < best_err then (l, e) else (best, best_err))
      (List.hd candidates, loo_err (List.hd candidates))
      (List.tl candidates)
    |> fst
  in
  (* experiment 1 of the paper: how well the model can fit all ten
     programs (a near-OLS fit); experiment 2: how well it predicts an
     unseen program (the regularized leave-one-out model) *)
  let full_ols = Regression.fit ~lambda:1e-7 x y in
  let full = Regression.fit ~lambda x y in
  let loo = Regression.leave_one_out ~lambda x y in
  let loo_w = Regression.leave_one_out ~lambda xw y in
  let rows =
    List.mapi
      (fun i (name, rates, _, sr) ->
        {
          t4_app = name;
          t4_rates = rates;
          t4_measured = sr;
          t4_predicted = loo.(i);
          t4_error = Regression.relative_error ~measured:sr ~predicted:loo.(i);
          t4_weighted_predicted = loo_w.(i);
          t4_weighted_error =
            Regression.relative_error ~measured:sr ~predicted:loo_w.(i);
        })
      measured
  in
  let mean_err errs =
    List.fold_left ( +. ) 0.0 errs /. Float.of_int (max 1 (List.length errs))
  in
  {
    rows;
    r_square = Regression.r_square full_ols x y;
    std_coefficients = Regression.standardized_coefficients full x y;
    unweighted_loo_error = mean_err (List.map (fun r -> r.t4_error) rows);
    weighted_loo_error = mean_err (List.map (fun r -> r.t4_weighted_error) rows);
  }

(* --- Figure 4: parallel tracing overhead --------------------------------- *)

type fig4_row = {
  f4_app : string;
  f4_ranks : int;
  f4_untraced_s : float;
  f4_traced_s : float;
  f4_overhead : float;  (** traced / untraced - 1 *)
}

(** Per-process tracing cost at scale: run the app on [ranks] simulated
    MPI ranks (one VM per rank on a domain), with and without the
    tracer, and compare wall time — the Figure 4 experiment.  The apps
    are rank-replicated (computation-only, like the paper's focus on
    the single faulty process); the communication path itself is
    exercised by the [Demo] programs. *)
let fig4 ?(effort = Effort.default) ?(apps = Registry.analyzed) () :
    fig4_row list =
  List.map
    (fun (app : App.t) ->
      let prog = App.program app in
      let ranks = effort.Effort.fig4_ranks in
      (* the harness is rank-replicated computation (no messages), so
         waves of 4 bound peak memory: at most 4 live traces *)
      let untraced = Runner.run ~traced:false ~max_live:4 ~size:ranks prog in
      let traced = Runner.run ~traced:true ~max_live:4 ~size:ranks prog in
      {
        f4_app = app.App.name;
        f4_ranks = ranks;
        f4_untraced_s = untraced.Runner.wall_seconds;
        f4_traced_s = traced.Runner.wall_seconds;
        f4_overhead =
          (traced.Runner.wall_seconds /. untraced.Runner.wall_seconds) -. 1.0;
      })
    apps
