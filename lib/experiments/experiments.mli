(** Drivers for every figure and table of the paper's evaluation.  Each
    driver returns plain data; the bench harness formats it.  See
    DESIGN.md for the per-experiment index and EXPERIMENTS.md for
    measured-vs-paper results. *)

type app_ctx = {
  app : App.t;
  prog : Prog.t;
  clean : Machine.result;
  trace : Trace.t;
  access : Access.t;
  instances : Region.instance list;
}

val context : App.t -> app_ctx
(** Fault-free traced context, cached per app. *)

val faulty_replay :
  App.t -> Machine.fault -> budget:int -> (Trace.cursor -> unit) -> unit
(** The faulty run as a replay producer ({!App.replay_with_fault}, for
    {!Align.drive} and the analyses over it). *)

val replay_acl :
  App.t -> clean:Trace.t -> Machine.fault -> budget:int ->
  Machine.result * Acl.result
(** One injection's run result and ACL table ({!Acl.analyze_replay}
    over {!App.replay_with_fault}): the faulty run is run once and its
    trace is never kept. *)

(** {2 Figure 5: per-code-region success rates} *)

type region_rates_row = {
  rr_app : string;
  rr_region : string;
  rr_internal : Campaign.counts;
  rr_input : Campaign.counts;
}

val fig5 : ?effort:Effort.t -> App.t -> region_rates_row list

(** {2 Figure 6: per-iteration success rates} *)

type iteration_rates_row = {
  ir_app : string;
  ir_iteration : int;
  ir_internal : Campaign.counts;
  ir_input : Campaign.counts;
}

val fig6 : ?effort:Effort.t -> App.t -> iteration_rates_row list

(** {2 Figure 7: the ACL time series} *)

type acl_series = {
  as_app : string;
  as_fault : Machine.fault;
  as_outcome : Machine.outcome;
  as_result : Acl.result;
}

val fig7 :
  ?seed:int -> ?target_iter:int -> ?min_peak:int -> App.t -> acl_series
(** Inject into iteration [target_iter] (negative = from the end; the
    default -3 is the paper's "last third iteration") and compute the
    ACL series, retrying seeds until an injection propagates. *)

(** {2 Table I: patterns per region} *)

type table1_row = {
  t1_app : string;
  t1_region : string;
  t1_lines : int * int;
  t1_instr_per_iter : int;
  t1_counts : (Pattern.t * int) list;
}

val table1 : ?effort:Effort.t -> ?seed:int -> App.t -> table1_row list
(** Pattern observations merged over internal and input injections into
    each region's first instance. *)

(** {2 Table II: repeated additions vs error magnitude} *)

type table2_row = {
  t2_iteration : int;
  t2_correct : float;
  t2_faulty : float;
  t2_magnitude : float;
}

val table2 : ?bit:int -> ?element:int list -> unit -> table2_row list
(** Flip [bit] of MG's u[element] after the first V-cycle and sample
    the error magnitude per iteration. *)

(** {2 Table III: Use Case 1, hardened CG} *)

type table3_row = {
  t3_variant : string;
  t3_counts : Campaign.counts;  (** whole-program injections *)
  t3_sprnvc : Campaign.counts;
      (** soft errors in v/iv memory during sprnvc — the corruption the
          Figure 12(b) transformation addresses *)
  t3_time_min : float;
  t3_time_max : float;
  t3_time_avg : float;
}

val table3 : ?effort:Effort.t -> unit -> table3_row list

(** {2 Table IV: Use Case 2, resilience prediction} *)

type table4_row = {
  t4_app : string;
  t4_rates : Rates.t;
  t4_measured : float;
  t4_predicted : float;
  t4_error : float;
  t4_weighted_predicted : float;
      (** from masking-probability-weighted rates (paper future work) *)
  t4_weighted_error : float;
}

type table4 = {
  rows : table4_row list;
  r_square : float;  (** of the near-OLS full fit (paper experiment 1) *)
  std_coefficients : float array;
  weighted_loo_error : float;
  unweighted_loo_error : float;
}

val table4 : ?effort:Effort.t -> ?apps:App.t list -> unit -> table4

(** {2 Figure 4: parallel tracing overhead} *)

type fig4_row = {
  f4_app : string;
  f4_ranks : int;
  f4_untraced_s : float;
  f4_traced_s : float;
  f4_overhead : float;  (** traced / untraced - 1 *)
}

val fig4 : ?effort:Effort.t -> ?apps:App.t list -> unit -> fig4_row list
