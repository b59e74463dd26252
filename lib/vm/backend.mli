(** Execution-backend selection: the interpreter ({!Machine.run}) or
    the closure-compiled backend ({!Compiled}), with automatic per-run
    fallback to the interpreter for configurations the compiled
    backend does not support (tracing, sinks, MPI hooks, recovery
    rollback, cache faults). *)

type t = Interp | Compiled

val default : t
(** [Compiled]: bit-identical where it applies, faster everywhere a
    campaign spends time. *)

val names : string list
(** Accepted spellings, for CLI converters: ["interp"; "compiled"]. *)

val to_string : t -> string
val of_string : string -> t option

val runner : t -> Prog.t -> Machine.config -> Machine.result
(** [runner t prog] resolves the execution function once — for
    [Compiled] this compiles (or fetches the cached) plan eagerly, so
    call it before fanning out to domains or forked workers.  The
    returned function falls back to the interpreter per run when the
    config is outside the compiled envelope. *)

val run : t -> Prog.t -> Machine.config -> Machine.result
(** One-shot convenience for [runner t prog cfg]. *)
