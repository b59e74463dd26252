(** The pass manager shared by the optimizer ({!Opt}) and the
    hardening passes ({!Passes}): one pass type, one per-function
    harness, one pipeline runner with a mandatory post-pipeline
    {!Verify} gate, and one pass-spec parser over a registry list.

    A pass maps a whole [Prog.t] to a rewritten one and returns a
    report and the {!Sitemap} from its input pcs to its output pcs.
    The report names the sites it considered and changed and — for the
    protective-site bookkeeping that feeds {!Vuln.rank}'s
    [extra_protective] — the [(function, pc)] positions of the guards
    it inserted, in its {e output} program's coordinates.  Because a
    later pass renumbers those positions again, {!run_pipeline} threads
    earlier reports through each later pass's sitemap, so the final
    report list is in final-program coordinates. *)

type opts = {
  top_k : int;
      (** regions taken from the top of {!Vuln.rank} by the selective
          passes (duplicate_compare) *)
}

val default_opts : opts
(** [top_k = 3]. *)

(** One site a pass changed, in the pass's input coordinates. *)
type site_change = {
  ch_func : string;
  ch_pc : int;      (** pc in the pass's input program *)
  ch_line : int;
  ch_region : int;  (** region id, or -1 *)
  ch_note : string; (** human-readable description of the rewrite *)
}

type report = {
  pass_name : string;
  sites_considered : int;  (** candidate sites the selector offered *)
  sites_changed : int;
  instrs_added : int;
  instrs_removed : int;  (** instructions deleted (optimizer passes) *)
  regs_added : int;
  changes : site_change list;
  protective : (string * int) list;
      (** inserted guard sites, [(fname, pc)]; coordinates are kept
          current by {!run_pipeline} as later passes renumber code *)
}

type t = {
  name : string;   (** canonical name, e.g. "duplicate-compare" *)
  short : string;  (** terse alias accepted in specs, e.g. "dup" *)
  doc : string;
  run : opts -> Prog.t -> Prog.t * report * Sitemap.t;
}

exception Verify_failed of {
  passes : string list;
  diags : Verify.diag list;  (** error-severity diagnostics only *)
}
(** The post-pipeline gate found broken IR.  This is a bug in a pass,
    never a property of the input program (pipelines only run on
    programs that verify to begin with). *)

exception Unknown_pass of {
  name : string;
  suggestions : string list;  (** did-you-mean, via {!Registry.suggest} *)
  known : string list;        (** the registry's canonical pass names *)
}

(** {1 The per-function harness} *)

(** What a pass did to one function. *)
type work = {
  w_func : Prog.func;         (** the rewritten function *)
  w_map : int array;          (** input pc -> output pc, [-1] = deleted *)
  w_changes : site_change list;
  w_changed : int;            (** sites changed, summed into the report *)
  w_considered : int;
  w_prot : int list;          (** guard pcs in [w_func] *)
}

val keep : Prog.func -> work
(** The function unchanged, with the identity map. *)

val rewritten :
  ?prot:int list -> Prog.func -> int array -> site_change list -> int -> work
(** [rewritten f' map changes considered], counting one changed site
    per change record. *)

val change : Prog.func -> int -> string -> site_change
(** [change f pc note]: a change record for [f]'s pc, with its line and
    region. *)

val func_pass :
  name:string ->
  short:string ->
  doc:string ->
  (opts -> Prog.t -> Prog.func -> work) ->
  t
(** A pass that rewrites each function independently.  The callback is
    applied once per program (for whole-program analyses) and the
    result once per function; the report sums the functions' works,
    with instruction deltas read off the maps and bodies. *)

(** {1 The pipeline runner} *)

val run_pipeline :
  ?opts:opts -> ?rounds:int -> t list -> Prog.t ->
  Prog.t * report list * Sitemap.t
(** Run the passes in order, repeating the whole list (up to [rounds],
    default 1) until a round changes nothing.  [Prog.validate] runs
    after each pass and the {!Verify} gate over the final program.
    Reports come back one per pass, in pass order, summed across
    rounds, with [protective] remapped to final-program coordinates
    (sites a later pass deleted are dropped); the sitemap composes
    every pass's.
    @raise Verify_failed on any error-severity diagnostic. *)

val protective_sites : report list -> (string * int) list
(** All guard sites of a pipeline's reports, for
    [Vuln.rank ~extra_protective]. *)

(** {1 Pass specs} *)

val find_exn : t list -> string -> t
(** Look up by canonical name or short alias, case-insensitively.
    @raise Unknown_pass with suggestions when nothing matches. *)

val parse_spec : t list -> string -> (t list, string) result
(** [parse_spec registry spec]: ["all"] (any case) is the whole
    registry; otherwise a [','] or ['+'] separated list of names or
    short aliases, deduplicated into the registry's order.  An empty
    spec or an unknown name is an [Error] that lists the known passes
    (and, for a near miss, suggests the match). *)

val spec_names : t list -> t list -> string
(** [spec_names registry passes]: ["all"] for the whole registry, else
    the short aliases joined with [+] (e.g. ["dup+fresh"]). *)

val pp_report : Format.formatter -> report -> unit
(** One summary line plus up to a handful of sample changes. *)
