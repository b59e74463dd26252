(** Campaign plans: the expensive, content-addressed artifacts of an
    app spelling (baked program, golden run, fault-site population),
    shared by the server {e and} by every worker — forked or remote —
    that rebuilds a campaign's trial kernel from its wire
    {!Campaign.spec}. *)

type plan = {
  pl_app : string;
  pl_prog : Prog.t;
  pl_target : Campaign.target;
  pl_clean_instructions : int;
  pl_golden_output : string;  (** the fault-free run's output *)
}

val plan_key : string -> string
(** Cache key of an app spelling. *)

val plan_of_app : ?cache_dir:string -> string -> (plan, string) result
(** Resolve, bake, run once fault-free (collecting the fault sites as
    the run streams, storing no trace) and (when [cache_dir] is given)
    cache the plan for an app spelling ([CG], [IS@all], [MG@opt], ...).  Each
    process also keeps the plans it has returned, per spelling (up to
    16, then the table resets), so repeat calls return the physically
    same plan without touching the cache. *)

val target_of_plan : plan -> Structure.t -> Campaign.target
(** The injection target a plan exposes for a declared structure:
    [pl_target] (the register-file surface) for [Structure.Reg],
    otherwise a structural target rebuilt from the plan's program. *)

val campaign_spec : plan -> Campaign.config -> Campaign.outcome_class Executor.spec
(** The executor spec of a campaign over a plan, built by
    {!Campaign.executor_spec} exactly as {!Campaign.run_report} builds
    its own: the byte-identity contract with [--jobs 1].  The target
    follows the config's declared [structure]. *)

val spec_of_submission :
  ?cache_dir:string ->
  Campaign.spec ->
  (Campaign.outcome_class Executor.spec, string) result
(** [campaign_spec] from a wire submission: resolve + bake (cache-warm)
    and instantiate under the spec's statistical design.  This is what
    a worker runs when the scheduler tells it to load a campaign. *)
