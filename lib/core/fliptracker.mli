(** FlipTracker — fine-grained tracking of error propagation and
    natural resilience in HPC programs.

    The one-call entry points over the full pipeline; see the
    subsystem libraries for the pieces (IR: [Ty]/[Value]/[Loc]/[Op]/
    [Instr]/[Prog]; language: [Ast]/[Compile]; execution:
    [Machine]/[Trace]; static analysis: [Cfg]/[Dataflow]/[Reaching]/
    [Liveness]/[Verify]/[Vuln]; analyses: [Region]/[Access]/[Align]/[Acl]/
    [Dddg]/[Tolerance]/[Trace_io]/[Export]; faults:
    [Rng]/[Stats]/[Campaign]; resilient execution:
    [Csexp]/[Journal]/[Pool]/[Executor]; patterns:
    [Pattern]/[Static_detect]/
    [Dynamic_detect]/[Rates]/[Weighted_rates]; prediction:
    [Linalg]/[Regression]; benchmarks: [App]/[Registry]; MPI:
    [Comm]/[Runner]/[Demo]; experiments: [Experiments]/[Effort]/
    [Ablation]). *)

val resolve_app : string -> (App.t, string) result
(** The shared CLI app lookup: a registry name (case-insensitive,
    structured suggestions in the error message); ["NAME@SPEC"] for
    the auto-hardened variant of [NAME] under the harden pass spec
    [SPEC] (["all"], or pass names/aliases joined with [+] or [,]);
    or ["NAME@opt"] / ["NAME@opt:SPEC"] for the optimized variant
    under the analysis-gated optimizer pipeline ({!Opt}). *)

type injection_report = {
  fault : Machine.fault;
  outcome : Machine.outcome;
  verified : bool;  (** did the app's own verification accept it? *)
  acl : Acl.result;
  patterns : Dynamic_detect.region_patterns list;
}

val inject_and_analyze : App.t -> Machine.fault -> injection_report
(** One fault, full analysis: outcome classification, the ACL series,
    and the resilience patterns observed per region. *)

val whole_program_target : App.t -> Machine.result * Campaign.target
(** The fault-free run of [app] and the whole-program target of its
    trace ({!Campaign.whole_program_target}), from one streamed run
    that stores no trace ({!Campaign.streamed_whole_program_target}). *)

val measure_resilience_report :
  ?cfg:Campaign.config -> ?exec:Campaign.exec -> App.t -> Campaign.run_report
(** Whole-program campaign on the resilient executor ([exec]: worker
    domains, journal + resume, early stopping),
    with the execution provenance alongside the counts. *)

val measure_resilience :
  ?cfg:Campaign.config -> ?exec:Campaign.exec -> App.t -> Campaign.counts
(** Success rate under uniform whole-program injection (Equation 1). *)

val pattern_rates : App.t -> Rates.t
(** The six pattern-rate features of the prediction model. *)

val pp_injection_report : Format.formatter -> injection_report -> unit
