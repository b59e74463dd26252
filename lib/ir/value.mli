(** Bit-accurate runtime values: raw 64-bit patterns, interpreted by
    the consuming instruction.  This representation is what makes
    single-bit flips well defined on any register or memory word. *)

type t = int64

val of_int : int -> t

(* [to_int], [of_float] and [to_float] are [external]s, the
   [Stdlib.Int64] primitives, so callers inline them even across
   [-opaque] module boundaries: no boxed [int64] or [float] crosses
   the call. *)

external to_int : t -> int = "%int64_to_int"

external of_float : float -> t
  = "caml_int64_bits_of_float" "caml_int64_bits_of_float_unboxed"
  [@@unboxed] [@@noalloc]
(** The IEEE-754 bit pattern of the float, not a rounding of it. *)

external to_float : t -> float
  = "caml_int64_float_of_bits" "caml_int64_float_of_bits_unboxed"
  [@@unboxed] [@@noalloc]

val zero : t
val one : t

val truth : bool -> t
(** [0]/[1] encoding of booleans, as produced by the compare opcodes. *)

val is_true : t -> bool
(** Any non-zero pattern is true (the branch instruction's test). *)

val flip_bit : t -> int -> t
(** [flip_bit v b] inverts bit [b] (0 = least significant).  Flipping
    the same bit twice restores the value.
    @raise Invalid_argument if [b] is outside [0, 63]. *)

val hamming_distance : t -> t -> int
(** Number of bit positions at which two patterns differ. *)

val error_magnitude : correct:t -> faulty:t -> float
(** Relative error of a faulty float value (Equation 2 of the paper):
    [|correct - faulty| / |correct|], interpreting both patterns as
    doubles.  [infinity] when the correct value is zero and the faulty
    one is not; [nan] when either pattern decodes to a NaN. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp_bits : Format.formatter -> t -> unit
val pp_typed : Ty.t -> Format.formatter -> t -> unit
