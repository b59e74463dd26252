(** The automatic-hardening facade: run the hardening passes through
    the shared pipeline ({!Pass.run_pipeline}, one round) and package a
    registered app's auto-hardened variant.

    Pass specs are parsed by [Pass.parse_spec Passes.all]: ["all"] or a
    [','] or ['+'] separated list of pass names / short aliases, e.g.
    ["dup,fresh"] or ["duplicate-compare+trunc-barrier"]; passes always
    run in the canonical order of {!Passes.all} regardless of spec
    order. *)

val transform : ?opts:Pass.opts -> Pass.t list -> Prog.t -> Prog.t
(** {!Pass.run_pipeline}, keeping only the program.
    @raise Pass.Verify_failed as it does. *)

val ranking_after :
  Prog.t -> Pass.report list -> Vuln.region_score list
(** {!Vuln.rank} of a hardened program with the pipeline's inserted
    guard sites supplied as [extra_protective], so the ranking sees the
    new protection. *)

val app_variant : ?opts:Pass.opts -> ?passes:Pass.t list -> App.t -> App.t
(** The auto-hardened variant of a registered app: same sources, same
    two-phase build, but the compiled program is rewritten by the
    pipeline before the reference run.  Named
    [base.name ^ "@" ^ Pass.spec_names Passes.all passes] (default
    passes: {!Passes.all}), so it caches and runs everywhere plain apps
    do. *)
