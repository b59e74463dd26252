(** Compiled (non-tracing) execution backend.

    A one-time closure compilation of a {!Prog.t}: each instruction
    becomes a pre-resolved thunk (operands, branch targets, opcode
    semantics, fault/budget/tick checks specialized at compile time),
    so campaign trials pay no per-step instruction dispatch and
    allocate no trace events.  Bit-identical to {!Machine.run} on the
    fixed seq contract — outcome, output, final memory, instruction
    and iteration counts, and fault firing all agree — for every
    configuration {!supported} accepts.  Configurations it rejects
    (tracing, sinks, MPI hooks, checkpoint/rollback) must go to the
    interpreter; {!Backend} does that fallback automatically. *)

type plan
(** A program compiled to arrays of instruction thunks.  Pure and
    reusable: one plan serves any number of concurrent runs. *)

val compile : Prog.t -> plan
(** Compile unconditionally, bypassing the cache (tests, one-shot
    tools). *)

val plan_for : Prog.t -> plan
(** The cached entry point: content-addressed on the program (digest
    of its marshaled form) with a physical-identity fast path, safe
    under concurrent domains.  Campaigns compile each program once. *)

val prog : plan -> Prog.t
(** The program a plan was compiled from. *)

val supported : Machine.config -> bool
(** [true] iff the configuration carries no sink, no MPI hooks, no
    recovery and no cache fault — the envelope within which [run] is
    bit-identical to the interpreter. *)

val run : plan -> Machine.config -> Machine.result
(** Execute.  Faults, budgets, ticks, iteration marks and the trap
    taxonomy behave exactly as in {!Machine.run}; [restores] is 0.
    @raise Invalid_argument if the config is not {!supported} —
    callers decide the fallback, this module never silently changes
    semantics. *)
