(** The one function-body rewriting engine, shared by the optimizer and
    the hardening passes.

    The IR addresses branch targets as absolute indices into the
    function's instruction array, and every instruction carries
    parallel [lines]/[regions] metadata, so inserting or deleting code
    is not a local edit.  [apply] does the whole rewrite in one
    renumbering pass:
    {ul
    {- [replace pc] returns [None] to keep the instruction, [Some []]
       to delete it, or [Some code] to substitute a straight-line
       sequence (branch targets inside replacement code are given in
       {e input} coordinates and are retargeted like kept code);}
    {- a {!before} insertion places straight-line code immediately
       before its anchor.  Its [via] predicate decides, per branching
       source pc, whether a branch to the anchor enters the inserted
       code or keeps targeting the anchor itself; by default every
       branch enters, so the code runs on every path that ran the
       anchor.  A loop preheader is built by answering [false] for the
       back-edge sources.  Fall-through always enters the inserted
       code;}
    {- an {!after} insertion runs on the fall-through edge out of its
       anchor: it is appended to the anchor's replacement, and a branch
       to the next pc skips it.  Terminator anchors
       ([Jmp]/[Bnz]/[Ret]) have no such edge and are rejected.}}

    Several insertions at one anchor and place concatenate in list
    order.  Inserted code must be straight-line: control flow in it is
    rejected, because its targets would be ambiguous under
    renumbering.

    The returned map sends each input pc to the new index of its (first
    replacement) instruction, or [-1] if it was deleted — the per-function
    arrays of a {!Sitemap}.  Branches to a deleted pc are retargeted to
    the next surviving instruction, which is semantics-preserving
    whenever deleted instructions are dead.  Inserted and replacement
    instructions inherit the anchor's line/region metadata, keeping
    region-based analyses meaningful. *)

type place =
  | Before of (int -> bool)
      (** does a branch from this input src pc enter the inserted code? *)
  | After

type insertion = {
  at : int;              (** anchor pc in the input function *)
  place : place;
  code : Instr.t list;   (** straight-line instructions only *)
}

val before : ?via:(int -> bool) -> int -> Instr.t list -> insertion
(** [before at code] inserts [code] immediately before [at]; [via]
    defaults to accepting every branch edge. *)

val after : int -> Instr.t list -> insertion
(** [after at code] inserts [code] on the fall-through edge out of
    [at]. *)

val apply :
  ?nregs:int ->
  ?insertions:insertion list ->
  ?replace:(int -> Instr.t list option) ->
  Prog.func ->
  Prog.func * int array
(** [nregs] (default: unchanged) is the rewritten function's register
    count, for code that uses fresh registers.
    @raise Invalid_argument on out-of-range anchors, control flow in
    inserted code, an {!after} insertion on a terminator, or a rewrite
    that deletes the whole body. *)
