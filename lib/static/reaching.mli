(** Reaching definitions over registers, plus reaching stores over
    memory words whose addresses resolve to compile-time constants.

    Each solution is one bitset per instruction: bit [pc] for the
    definition (or resolved store) at [pc], plus one bit per register
    for its entry sentinel (per tracked word for "an unknown writer may
    occupy it").  Definitions kill by mask and the join is a word-wise
    [or], so a fixpoint costs a few machine words per instruction
    instead of a set per register; the queries below decode the bits
    into the same answers a set-per-register solution gives. *)

val uninit_def : int
(** Sentinel definition: the register has not been written since
    function entry and is not a parameter. *)

val param_def : int
(** Sentinel definition: the register holds an incoming argument. *)

val extern_def : int
(** Sentinel memory writer: the word's value predates the function. *)

type t

val compute : ?arity:int -> Prog.func -> t
(** Forward reaching-definitions fixpoint.  Registers [0..arity-1] start
    as [param_def], the rest as [uninit_def]. *)

val cfg : t -> Cfg.t
(** The CFG the solution was computed over, for clients layering
    further analyses on the same graph. *)

val per_pc_facts :
  Cfg.t ->
  transfer:(int -> 'a -> 'a) ->
  'a Dataflow.solution ->
  bottom:'a ->
  'a array
(** Materialize the per-instruction "before" facts of a forward
    solution (shared helper for the forward analyses). *)

val defs_of : t -> pc:int -> Instr.reg -> int list
(** Definition sites (sorted) that may reach the register just before
    [pc]; sentinels included.  Empty for unreachable code. *)

val unique_def : t -> pc:int -> Instr.reg -> int option
(** The single real definition site reaching the use, if exactly one. *)

val may_be_uninit : t -> pc:int -> Instr.reg -> bool

val const_addr : t -> pc:int -> Instr.reg -> int option
(** The constant word address in the register, when its unique reaching
    definition is a [Const]. *)

type mem

val compute_mem : t -> mem
(** Forward reaching-stores fixpoint over every word address that
    appears as a resolved constant load/store address in the function.
    Unresolvable stores, calls and [Randlc] count as unknown writers of
    every tracked word. *)

val tracked_addrs : mem -> int list

val store_of : mem -> pc:int -> addr:int -> int option
(** The unique store instruction whose value occupies [addr] just before
    [pc], if there is exactly one and no unknown writer intervenes. *)
