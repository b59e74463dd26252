(** Masking-probability-weighted pattern rates — the refinement the
    paper lists as future work (Section VII-B): each dynamic pattern
    instance contributes the fraction of the datum's fault sites whose
    corruption it would absorb, instead of counting 1. *)

type t = {
  w_condition : float;
  w_shift : float;
  w_truncation : float;
  w_dead_location : float;
  w_repeated_addition : float;
  w_overwrite : float;
}

val to_vector : t -> float array

val shift_weight : int64 -> float
(** Shifted-out fraction of a 32-bit integer datum. *)

val compare_weight : is_float:bool -> Value.t -> Value.t -> float
(** Fraction of low bits that cannot cross the operand margin. *)

val fptosi_weight : Value.t -> float
(** Fractional mantissa bits dropped by a float-to-int conversion. *)

val print_weight : string -> float
(** Mantissa bits below the printed precision; 0 for non-truncating
    formats. *)

val compute : Trace.t -> Rates.t -> t
(** [compute trace rates] weighs the condition, shift and truncation
    instances of a fault-free trace; the dead-location,
    repeated-addition and overwrite features are [rates]' own, which
    must be {!Rates.compute} of the same trace. *)

val pp : Format.formatter -> t -> unit
