(** The four pattern-injection passes, grounded in the paper's six
    resilience patterns.  Every pass is a {e fault-free identity}: on
    an uncorrupted run the transformed program prints exactly the
    baseline's output (the guards compare equal values and pass), so
    hardened variants verify against the same baked reference.  Under
    a fault, the guards convert would-be silent data corruptions into
    traps ([1/0]), which the fault-manifestation model classifies as
    Crashed — the SWIFT-style detect-to-trap trade.

    {ul
    {- {!duplicate_compare} — selective instruction duplication with
       compare-and-trap on the top-K regions of {!Vuln.rank}: every
       arithmetic instruction in a selected region is recomputed into a
       fresh register and the two results compared bitwise;}
    {- {!accumulator_guard} — store verification on the accumulators
       found by {!Static_detect}'s reaching-defs slicer (the
       repeated-additions sites): after the accumulating store, the
       word is loaded back and compared against the register that was
       stored, catching corruption of the store's data path;}
    {- {!overwrite_fresh} — the automatic analogue of CG's hand-written
       [harden_dcl]: reused temporaries are split into fresh registers
       (one per def-use web, via reaching definitions), and registers
       that die at an instruction are overwritten with zero right after
       their last use.  This inserts no detector — it manufactures
       Dead Corrupted Location / Data Overwriting sites, so more flips
       land in values that are dead or immediately overwritten;}
    {- {!trunc_barrier} — truncation-style range barriers at region
       exits carrying FP state: after the last store of each
       double-typed variable in a region, the stored word is loaded
       back and trapped if its magnitude exceeds [1e100] — a value no
       fault-free run produces, but one bit flip in a high exponent bit
       does.  (NaNs compare false and pass the barrier; they surface in
       the verification phase instead.)}} *)

val duplicate_compare : Pass.t
val accumulator_guard : Pass.t
val overwrite_fresh : Pass.t
val trunc_barrier : Pass.t

val all : Pass.t list
(** Canonical pipeline order: [duplicate_compare] (selects regions on
    the unhardened ranking), then [accumulator_guard], then
    [trunc_barrier], then [overwrite_fresh] (renames and scrubs last,
    so the guard temporaries are scrubbed too). *)

