(** Execution-backend selection.

    One switch for everything that runs programs without looking at
    traces: campaigns, the campaign server's workers, resilience
    reports.  [Compiled] is the default — it is bit-identical to the
    interpreter wherever it applies and several times faster per
    trial — and it degrades to the interpreter {e per run} whenever a
    configuration needs interpreter-only machinery (tracing, sinks,
    MPI hooks, recovery rollback, cache faults), so callers can pick a
    backend once and attach a trace or recovery policy later without
    breaking anything.  The compiled backend's own trial checkpoints
    (start at the last clean snapshot before the fault, stop once the
    state rejoins the clean run) are not rollback: they apply to every
    compiled fault trial and change no result. *)

type t = Interp | Compiled

let default = Compiled
let names = [ "interp"; "compiled" ]

let to_string = function Interp -> "interp" | Compiled -> "compiled"

let of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

let runner (t : t) (prog : Prog.t) : Machine.config -> Machine.result =
  match t with
  | Interp -> Machine.run prog
  | Compiled ->
      (* compile (or fetch) the plan now, once, so callers can resolve
         the runner before fanning trials out to domains or forked
         workers; the per-run supported check keeps the fallback
         explicit and exact *)
      let plan = Compiled.plan_for prog in
      fun cfg ->
        if Compiled.supported cfg then Compiled.run plan cfg
        else Machine.run prog cfg

let run (t : t) (prog : Prog.t) (cfg : Machine.config) : Machine.result =
  runner t prog cfg
