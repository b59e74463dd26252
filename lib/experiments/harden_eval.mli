(** Before/after evaluation of the automatic-hardening pipeline: paired
    baseline/hardened campaigns for any registered app, reported in the
    style of the paper's Table III.

    Campaigns are {e paired}: every variant runs with the same campaign
    seed, and trial [i] of every variant draws its fault from
    [Rng.derive ~seed ~index:i] — the same per-trial random stream — so
    the deltas between variants are not noise from different fault
    samples.  (The populations still differ — hardened programs execute
    more instructions — so trial [i] does not hit the {e same} site in
    both variants; pairing the streams removes sampling-order variance,
    which is what can be removed.)

    Per-pass attribution comes from running each pass alone, then all
    of them together, against the shared baseline. *)

type variant = {
  hv_label : string;  (** "baseline", "+duplicate-compare", ..., "all" *)
  hv_passes : string list;  (** canonical pass names applied *)
  hv_static_instrs : int;
  hv_clean_instructions : int;  (** fault-free dynamic instructions *)
  hv_report : Campaign.run_report;
  hv_pass_reports : Pass.report list;  (** empty for the baseline *)
}

type report = {
  he_app : string;
  he_seed : int;
  he_variants : variant list;  (** baseline first, combined last *)
}

val evaluate :
  ?effort:Effort.t ->
  ?opts:Pass.opts ->
  ?passes:Pass.t list ->
  App.t ->
  report
(** Baseline, each pass of [passes] (default {!Passes.all}) alone, and
    — when more than one pass is given — all of them combined, each
    under a whole-program internal-fault campaign with shared per-trial
    RNG streams.  @raise Pass.Verify_failed if any pipeline breaks the
    IR (a pass bug, caught before any campaign runs). *)

val pp_report : Format.formatter -> report -> unit
(** The Table-III-style report: SDC/crash/benign rates with deltas
    against baseline, instruction overheads, and per-pass site/guard
    counts. *)

val to_csv : report -> string
