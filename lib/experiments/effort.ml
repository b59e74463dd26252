(** Effort presets for the experiment drivers.

    The paper's campaigns use the Leveugle statistical design (95%
    confidence / 3% margin for Section V; 99% / 1% for Section VII),
    which implies roughly 1000-16000 injections per target — days of
    compute on one core.  The default preset keeps the statistical
    design but caps trials per target so the whole suite regenerates in
    minutes; [paper] removes the caps. *)

type t = {
  campaign : Campaign.config;
  acl_injections : int;
      (** faulty traced runs per region for pattern mining (Table I) *)
  fig4_ranks : int;  (** simulated MPI ranks for the tracing-overhead run *)
  timing_runs : int;
      (** repetitions for Table III execution times and Figure 4 wall
          times *)
  jobs : int;
      (** worker domains per campaign; any value yields identical
          counts (the executor's determinism guarantee) *)
}

let quick =
  {
    campaign =
      { Campaign.default_config with max_trials = Some 40; budget_factor = 10 };
    acl_injections = 2;
    fig4_ranks = 8;
    timing_runs = 5;
    jobs = 1;
  }

let default =
  {
    campaign =
      { Campaign.default_config with max_trials = Some 120; budget_factor = 10 };
    acl_injections = 8;
    fig4_ranks = 16;
    timing_runs = 10;
    jobs = 1;
  }

let paper =
  {
    campaign = { Campaign.default_config with max_trials = None };
    acl_injections = 20;
    fig4_ranks = 64;
    timing_runs = 20;
    jobs = 1;
  }

(** The campaign-execution knobs an effort implies (currently just the
    worker-domain count; journaling and early stopping are per-call
    decisions). *)
let exec (e : t) : Campaign.exec = { Campaign.default_exec with jobs = e.jobs }

let of_string = function
  | "quick" -> quick
  | "default" -> default
  | "paper" -> paper
  | s -> invalid_arg ("Effort.of_string: " ^ s)
