(** Data locations: anything a fault can corrupt and an analysis can
    track — a virtual register inside one function activation, or a
    word of the flat global memory.  Registers carry an activation id
    so re-entrant calls do not alias in the analyses. *)

type t =
  | Reg of int * int  (** [Reg (activation, register_index)] *)
  | Mem of int        (** word address in global memory *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val is_mem : t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Int keys}

    Every location has an int key, so analyses can index dense arrays
    and traces can store locations unboxed.  A memory word's key is
    [addr lsl 1]; a register's is
    [((act lsl reg_bits) lor r) lsl 1 lor 1], for addresses below
    2^61, activations below 2^40 and register numbers below
    2^{!reg_bits}, which covers every location a VM run produces.  Any
    other location gets a negative key from a process-wide table, so
    {!of_key} inverts {!key} on every location. *)

val reg_bits : int
(** Width of the register-number field of a register key. *)

val key : t -> int
val of_key : int -> t

val mem_key : int -> int
(** [mem_key a] is [key (Mem a)], without building the location. *)

val reg_key : int -> int -> int
(** [reg_key act r] is [key (Reg (act, r))], without building the
    location.  Within one activation whose keys are not negative,
    [reg_key act r = reg_key act 0 + 2 * r]. *)

val key_is_mem : int -> bool
(** [key_is_mem (key l)] is [is_mem l]. *)

module Ord : Set.OrderedType with type t = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
