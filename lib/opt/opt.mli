(** The dataflow-driven IR optimizer.

    Every pass is justified by an analysis from [lib/static] — the
    constant lattice ({!Constprop}), available loads/copies ({!Avail}),
    reaching definitions, liveness, and dominator/natural-loop
    structure ({!Cfg}) — and the pipeline is gated twice: the harden
    {!Verify} gate rejects broken IR ({!Pass.Verify_failed}), and a
    fault-free output-identity gate rejects any rewrite that changes
    the reference behavior ({!Identity_failed}).

    The passes are {!Pass.t}s built by the shared per-function
    harness and run by the shared pipeline runner, so they compose
    with the hardening passes.  Every pass also returns a {!Sitemap}
    from its input pcs to its output pcs, so fault-injection campaigns
    can either sample sites natively on the optimized program or
    sample at the declared unoptimized reference level and translate
    ({!Campaign.translate_target}); pipelines that delete instructions
    have partial maps and reference-level campaigns over them refuse
    with {!Campaign.Untranslatable_site}. *)

exception Identity_failed of { passes : string list; reason : string }
(** The optimized program's fault-free run diverged from the
    reference: outcome, printed output, final memory image, or
    main-loop iteration count. *)

val fold_pass : Pass.t
val simp_pass : Pass.t
val cse_pass : Pass.t
val rle_pass : Pass.t
val copy_pass : Pass.t
val promote_pass : Pass.t
val hoist_pass : Pass.t
val coalesce_pass : Pass.t
val dce_pass : Pass.t

val all : Pass.t list
(** Canonical order: constfold, simplify, local-cse,
    redundant-load-elim, copyprop, scalar-promote, loop-hoist,
    coalesce, deadcode. *)

val spec_names : Pass.t list -> string
(** ["opt"] for the full pipeline, ["opt:fold+dce"]-style otherwise —
    the suffix {!app_variant} appends to an app name.  Specs are parsed
    by [Pass.parse_spec all]. *)

val optimize :
  ?rounds:int -> Pass.t list -> Prog.t -> Prog.t * Pass.report list * Sitemap.t
(** {!Pass.run_pipeline} with [rounds] defaulting to 4: the whole list
    is iterated until a round changes nothing.
    @raise Pass.Verify_failed on any error-severity diagnostic. *)

val check_identity : passes:string list -> base:Prog.t -> opt:Prog.t -> unit
(** Fault-free identity gate: run both programs and require identical
    outcome, output, final memory and iteration count.
    @raise Identity_failed otherwise. *)

val transform : ?rounds:int -> Pass.t list -> Prog.t -> Prog.t
(** {!optimize}, keeping only the program (static gates only). *)

val transform_checked : ?rounds:int -> Pass.t list -> Prog.t -> Prog.t
(** {!optimize} followed by {!check_identity} against the input. *)

val app_variant : ?rounds:int -> ?passes:Pass.t list -> App.t -> App.t
(** The optimized variant of an app: named [NAME@opt] (or
    [NAME@opt:SPEC] for a subset), with [transform] set to
    {!transform_checked} so baking itself enforces both gates. *)

(** An optimization of a specific app with its sitemap kept, for
    reference-level campaigns. *)
type optimized = {
  o_base : App.t;
  o_passes : Pass.t list;
  o_prog : Prog.t;
  o_reports : Pass.report list;
  o_sitemap : Sitemap.t;
}

val optimize_app : ?rounds:int -> ?passes:Pass.t list -> App.t -> optimized
(** @raise Identity_failed / Pass.Verify_failed as the gates demand. *)

val reference_seq_translation : optimized -> int -> int option
(** The dynamic reference-seq -> optimized-seq translation, from the
    app's fault-free trace and a traced run of the optimized program. *)

val reference_campaign :
  ?cfg:Campaign.config -> ?exec:Campaign.exec -> optimized -> Campaign.run_report
(** Whole-program campaign whose sites are sampled from the
    {e reference} trace and translated onto the optimized program; the
    config is stamped [site_level = Reference] so its journal tag can
    never mix with native-level runs.
    @raise Campaign.Untranslatable_site when the pipeline deleted a
    sampled site's instruction. *)

val pp_reports : Format.formatter -> Pass.report list -> unit

val static_instruction_count : Prog.t -> int
