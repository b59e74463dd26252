(** Compiled (non-tracing) execution backend.

    A one-time closure compilation of a {!Prog.t}: each instruction
    becomes a pre-resolved thunk (operands, branch targets, opcode
    semantics, fault/budget/tick checks specialized at compile time),
    so campaign trials pay no per-step instruction dispatch and
    allocate no trace events.  Bit-identical to {!Machine.run} on the
    fixed seq contract — outcome, output, final memory, instruction
    and iteration counts, and fault firing all agree — for every
    configuration {!supported} accepts.  Configurations it rejects
    (tracing, sinks, MPI hooks, recovery rollback, cache faults) must
    go to the interpreter; {!Backend} does that fallback
    automatically.

    Recovery rollback ({!Machine.config.recover}) is a fault-tolerance
    policy that changes a run's result, and stays interpreter-only.
    Trial checkpoints are this backend's own and change no result: a
    run with a [Write] or [Mem] fault and no [tick] starts at the last
    clean snapshot at or before its fault and stops once its state
    equals the clean run's at a later snapshot (DESIGN.md,
    "Checkpointed trials"). *)

type plan
(** A program compiled to arrays of instruction thunks, with the
    checkpoints of its clean run once a faulty trial has needed them.
    Reusable: one plan serves any number of concurrent runs. *)

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
    The first faulty run of a plan under an iteration mark also runs
    the clean program twice, to take its checkpoints.
    @raise Invalid_argument if the config is not {!supported} —
    callers decide the fallback, this module never silently changes
    semantics. *)

val checkpoint_seqs : plan -> Machine.config -> int array
(** The seqs of the clean snapshots faulty runs under [cfg]'s iteration
    mark and budget restore from, ascending from 0; recorded now if no
    faulty run has needed them yet.  For tests and tools. *)

val executed : unit -> int
(** The instructions the compiled runs on the calling domain have
    actually executed so far, checkpoint recording included: unlike
    [Machine.result.instructions], a trial's share leaves out the
    instructions its restored snapshot and its early stop skipped.
    Deterministic for a given sequence of runs. *)
