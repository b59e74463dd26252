(** Fault-injection campaigns (the FlipIt substitute): sample fault
    sites uniformly from a target population, run once per fault, and
    classify each run as Verification Success, Verification Failed
    (SDC), or Crashed (trap or hang). *)

type outcome_class = Success | Failed | Crashed | Recovered

type counts = {
  success : int;
  failed : int;
  crashed : int;
  recovered : int;
      (** runs verified correct only after checkpoint rollback; always
          0 under the default [No_recovery] policy *)
  trials : int;
      (** classified trials: success + failed + crashed + recovered *)
  infra : int;
      (** trials lost to infrastructure failures, excluded from
          [trials] and the success rate *)
}

val zero_counts : counts
val add_outcome : counts -> outcome_class -> counts

val success_rate : counts -> float
(** Equation 1 of the paper (infra errors excluded; recovered runs are
    not natural successes and do not count). *)

val sdc_rate : counts -> float
(** Verification-failed (silent data corruption) fraction of classified
    trials. *)

val crash_rate : counts -> float
val recovered_rate : counts -> float
(** Crashed and recovered fractions of classified trials. *)

val pp_counts : Format.formatter -> counts -> unit

(** Recovery policy of a campaign: [No_recovery] reproduces historical
    behavior exactly; [Rollback] arms the VM checkpoint/rollback with a
    restore budget. *)
type recovery = No_recovery | Rollback of { max_restores : int }

val recovery_to_string : recovery -> string
(** [none] or [rollback:N]. *)

val recovery_names : string list
(** Concrete spellings for did-you-mean suggestions. *)

val recovery_of_string : string -> (recovery, string) result
(** [none], [rollback] (default budget) or [rollback:N] with N >= 1. *)

val machine_recover : recovery -> Machine.recover option
(** The VM configuration a policy stands for. *)

val run_one :
  ?backend:Backend.t ->
  Prog.t ->
  budget:int ->
  ?recovery:recovery ->
  verify:(Machine.result -> bool) ->
  Machine.fault ->
  outcome_class
(** One faulty execution, classified.  Traps and instruction-budget
    exhaustion (a hang) are Crashed.  Under [Rollback], a finished
    verified run that took at least one restore is Recovered.
    [backend] (default {!Backend.default}) picks the execution engine;
    outcomes are identical either way — a [Rollback] policy falls back
    to the interpreter automatically. *)

val run_one_with :
  (Machine.config -> Machine.result) ->
  budget:int ->
  ?recovery:recovery ->
  verify:(Machine.result -> bool) ->
  Machine.fault ->
  outcome_class
(** The classification kernel over an already-resolved execution
    function (see {!Backend.runner}); what {!trial_fun} uses so the
    compiled plan is resolved once, not per trial. *)

(** A fault site carries the width of the datum it corrupts: the
    paper's subjects are C programs whose integers are 32-bit, so
    integer-typed destinations expose 32 candidate bits while doubles
    expose all 64. *)
type site = { seq : int; bits : int }

type input_site = { addr : int; bits : int }

val event_bits : Prog.t -> Trace.event -> int
(** Width of the value written by a trace event (from its opcode or the
    symbol table's type of the touched memory). *)

val writing_sites : Prog.t -> Trace.t -> lo:int -> hi:int -> site array

type target =
  | Internal of { sites : site array }
      (** flip a destination bit of one of these dynamic instructions *)
  | Input of { entry_seq : int; sites : input_site array }
      (** flip a bit of an input memory word at region entry *)
  | Mem_over_time of { seqs : int array; sites : input_site array }
      (** flip a bit of one of these memory words at a random point of
          an execution window (soft errors in resident data) *)
  | Cache_struct of {
      geom : Cache_model.geometry;
      meta : bool;
          (** [true]: corrupt line metadata (tag, valid, dirty);
              [false]: corrupt a data word of a line *)
      seq_hi : int;
          (** faults fire uniformly in [\[0, seq_hi)] dynamic
              instructions (the fault-free instruction count) *)
      mem_words : int;  (** program memory size, for tag-width sizing *)
    }
      (** corrupt one cache line (any set, any way) of a write-back
          cache of [geom] at a uniform point of the execution *)
  | Istore_struct of { enc : Icodec.t }
      (** flip bits of the program's binary instruction encoding; the
          mutated word decodes into a different legal instruction or an
          [Illegal] trap, and the trial runs the re-baked program *)

val target_population : target -> int

val unreachable_sites : target -> instructions:int -> int list
(** Phantom-site detector: the seqs of [t] (sorted, deduplicated) that
    lie at or beyond the {e untraced} fault-free instruction count and
    so can never fire in a campaign run.  The traced/untraced seq
    contract demands this be empty for any target harvested from a
    trace of the same program; the test suite pins that for every
    registry app. *)

val sample_fault : ?model:Fault_model.t -> Rng.t -> target -> Machine.fault
(** Sample a fault under a fault model (default [Single_bit], whose RNG
    draw sequence is pinned to the historical code, keeping
    default-model campaigns count-identical).  Site selection is shared
    by all models; only the corruption differs.
    @raise Invalid_argument on [Istore_struct] — an istore corruption
    is not a VM fault; use {!sample_injection}. *)

(** One sampled corruption, of either kind: a seq-keyed VM fault, or a
    corruption of one word of the program's binary encoding that the
    trial bakes into a mutated program before running. *)
type injection =
  | Vm_fault of Machine.fault
  | Istore_flip of {
      widx : int;  (** global word index into the {!Icodec.t} encoding *)
      corruption : Machine.corruption;
    }

val sample_injection : ?model:Fault_model.t -> Rng.t -> target -> injection
(** Total over every target kind; on non-istore targets this is
    [Vm_fault (sample_fault ~model rng t)] with the identical RNG draw
    sequence, so it is a drop-in generalization of {!sample_fault}. *)

val internal_target : Prog.t -> Trace.t -> Region.instance -> target
val input_target : Prog.t -> Trace.t -> Access.t -> Region.instance -> target
val whole_program_target : Prog.t -> Trace.t -> target

val streamed_whole_program_target :
  iter_mark:int -> Prog.t -> Machine.result * target
(** The fault-free run of [prog] (default budget) and
    {!whole_program_target} of its trace, collected while the events
    stream past: the same result and target as [Machine.run_traced]
    followed by [whole_program_target], without storing the trace. *)

val function_target : Prog.t -> Trace.t -> string -> target
(** Sites restricted to one function's dynamic instructions. *)

exception Unknown_symbol of { name : string; available : string list }
(** A memory target named a symbol the program does not declare;
    [available] lists the valid global symbol names, sorted. *)

val global_symbol_names : Prog.t -> string list
(** Global symbol names, sorted. *)

val memory_during_function_target :
  Prog.t -> Trace.t -> fname:string -> vars:string list -> target
(** Soft errors in the memory of named variables while [fname] runs —
    the Use Case 1 scenario (v/iv corruption during sprnvc).
    @raise Unknown_symbol when a variable is not a known symbol. *)

val cache_target :
  ?geom:Cache_model.geometry ->
  meta:bool ->
  Prog.t ->
  clean_instructions:int ->
  target
(** Cache-structure target (default geometry
    {!Cache_model.default_geometry}): [meta] picks the metadata surface
    (tag/valid/dirty) over the data-word surface. *)

val istore_target : Prog.t -> target
(** Instruction-store target: every bit of the program's binary
    encoding (see {!Icodec.encode}). *)

val structure_target :
  ?geom:Cache_model.geometry ->
  Structure.t ->
  Prog.t ->
  Trace.t ->
  clean_instructions:int ->
  target
(** The whole-program target of a named microarchitectural structure.
    [Structure.Reg] is the historical register-file surface —
    byte-for-byte the same target (and RNG stream) as
    {!whole_program_target}. *)

(** The IR level a target's dynamic sequence numbers refer to:
    [Native] (historical default) means sites were sampled from the
    trace of the very program being injected; [Reference] means they
    were sampled at the unoptimized reference level and translated. *)
type site_level = Native | Reference

val site_level_to_string : site_level -> string

exception Untranslatable_site of { seq : int; total : int; unmapped : int }
(** A reference-level site has no image in the transformed program;
    the campaign refuses rather than silently re-sampling. *)

val translate_target : map_seq:(int -> int option) -> target -> target
(** Rewrite every dynamic seq of a target through [map_seq]
    (reference seq -> transformed seq); memory addresses are kept.
    @raise Untranslatable_site if any position has no image. *)

type config = {
  seed : int;
  confidence : float;
  margin : float;
  max_trials : int option;  (** cap for quick runs; [None] = full design *)
  budget_factor : int;      (** hang budget = factor x fault-free count *)
  model : Fault_model.t;    (** corruption applied per fault *)
  recovery : recovery;      (** [No_recovery] keeps historical numbers *)
  site_level : site_level;
      (** declared sampling level; anything but [Native] marks the
          journal tag so mixed-level resumes are impossible *)
  structure : Structure.t;
      (** the microarchitectural surface this campaign declares; the
          {e target} determines the actual sites (build it with
          {!structure_target} so the two agree).  Anything but
          [Structure.Reg] suffixes the journal tag, so per-structure
          journals can never silently resume one another. *)
}

val default_config : config
(** Seed 42, the paper's 95%/3% design, budget factor 20, single-bit
    flips, no recovery. *)

val trials_for : config -> target -> int

(** Execution knobs, orthogonal to the statistical design: worker
    domains, on-disk journal + resume and Wilson-interval early
    stopping; retries use {!Executor.default_config}'s policy.
    Defaults reproduce the sequential in-memory behavior. *)
type exec = {
  jobs : int;  (** worker domains; counts are identical for any value *)
  journal : string option;
      (** append-only trial log (csexp, fsync'd per batch) *)
  resume : bool;  (** skip trials already journaled *)
  early_stop : bool;
      (** stop once the Wilson interval half-width reaches the
          configured margin (evaluated at batch boundaries) *)
  batch : int;
  on_progress : (Executor.progress -> unit) option;
  metrics : Obs.t option;
      (** when set, the executor records per-phase wall time and
          trial/retry/infra counters there (see {!Executor.config}) *)
  backend : Backend.t;
      (** execution engine for the trials (default {!Backend.default},
          the compiled backend).  Counts are identical for either
          value and the journal tag does not mention it, so journals
          written under one backend resume under the other; only the
          wall-clock changes. *)
}

val default_exec : exec

(** Honest campaign result: counts plus how much of the plan ran. *)
type run_report = {
  counts : counts;
  planned : int;
  stopped_early : bool;
  resumed : int;  (** trials loaded from the journal, not re-run *)
  wall_s : float;
}

val run_report :
  Prog.t ->
  verify:(Machine.result -> bool) ->
  clean_instructions:int ->
  ?cfg:config ->
  ?exec:exec ->
  target ->
  run_report
(** Run a campaign on the resilient executor.  Trial [i] samples its
    fault from [Rng.derive ~seed ~index:i], so the counts are a pure
    function of the configuration: [--jobs N], scheduling, and
    kill-then-resume cannot change them.  Trials that raise are retried
    with bounded backoff and then counted as [infra]; nothing aborts
    the campaign. *)

val run :
  Prog.t ->
  verify:(Machine.result -> bool) ->
  clean_instructions:int ->
  ?cfg:config ->
  ?exec:exec ->
  target ->
  counts
(** [run_report] without the provenance. *)

(** {2 Campaign identity and the per-trial kernel}

    Exposed so other engines over the same trial model — notably the
    campaign server's forked workers — run the {e exact same} per-trial
    function and write journals under the {e exact same} tag as the
    in-process executor, which is what makes server-mode counts
    byte-identical to [--jobs 1]. *)

val campaign_tag : config -> population:int -> trials:int -> string
(** The journal identity of a campaign.  Byte-identical to the
    historical tag under the default model/policy; otherwise suffixed
    with the model, recovery policy, and site level so journals
    recorded under different semantics can never silently resume one
    another. *)

val trial_fun :
  ?backend:Backend.t ->
  Prog.t ->
  verify:(Machine.result -> bool) ->
  clean_instructions:int ->
  ?cfg:config ->
  target ->
  int ->
  outcome_class
(** The deterministic per-trial kernel: trial [i] derives its RNG from
    [(cfg.seed, i)], samples one fault, runs one classified execution.
    Pure in the index — which process, worker, or [backend] evaluates
    it cannot matter.  The backend runner (and, for the compiled
    default, the program's plan) is resolved when [trial_fun] is
    applied to the target, before any trial runs — call it in the
    parent before forking workers or spawning domains. *)

val executor_spec :
  Prog.t ->
  verify:(Machine.result -> bool) ->
  clean_instructions:int ->
  ?cfg:config ->
  ?exec:exec ->
  target ->
  outcome_class Executor.spec
(** The executor spec of a campaign: {!campaign_tag}, {!trial_fun}
    under [exec]'s backend, the outcome codec, and the
    Wilson-interval stop predicate when [exec.early_stop] is set.
    {!run_report} and the campaign server both build their specs here,
    the byte-identity contract between served and [--jobs 1] counts. *)

val encode_outcome : outcome_class -> string
(** Journal/wire encoding of an outcome: [S], [F], [C], or [R]. *)

val decode_outcome : string -> outcome_class option

val counts_of_outcomes : outcome_class Executor.outcome array -> counts
(** Fold executor outcomes into counts ([Infra_error] increments
    [infra]). *)

(** {2 Campaign submission (the wire API)}

    A submittable whole-program campaign: the app spelling, seed, trial
    cap, fault model, and recovery policy — everything a campaign
    server needs to reconstruct the statistical design.  Deliberately
    not the program itself: the server resolves and bakes the app on
    its side (content-addressed cache), so a submission is a few
    hundred bytes. *)
type spec = {
  sp_app : string;  (** [CG], [CG@all], [IS@opt:fold+dce], ... *)
  sp_seed : int;
  sp_trials : int option;  (** [max_trials]; [None] = full design *)
  sp_model : Fault_model.t;
  sp_recovery : recovery;
  sp_structure : Structure.t;
      (** fault surface; the server builds the matching target *)
}

val default_spec : spec
(** App [IS], the default seed, a 500-trial cap, single-bit flips, no
    recovery, the register-file surface. *)

val config_of_spec : spec -> config
(** The statistical design a submission stands for ([default_config]
    with the spec's seed, cap, model, and recovery). *)

val spec_to_csexp : spec -> Csexp.t
val spec_of_csexp : Csexp.t -> (spec, string) result

val counts_to_csexp : counts -> Csexp.t
(** Counts on the wire, field-ordered and versioned — the encoding the
    chaos determinism gate compares byte-for-byte. *)

val counts_of_csexp : Csexp.t -> (counts, string) result
