(** Bit-accurate runtime values.

    Every value in the machine — register contents, memory words — is a
    64-bit pattern.  Whether the pattern is an integer or a float is
    decided by the instruction that consumes it, exactly as in a real
    register file.  This representation is what makes single-bit flips
    well defined on any location. *)

type t = int64
(** A raw 64-bit pattern. *)

let of_int (i : int) : t = Int64.of_int i

(* primitives, not wrappers, so callers convert without boxing even
   across [-opaque] modules (see value.mli) *)
external to_int : t -> int = "%int64_to_int"

external of_float : float -> t
  = "caml_int64_bits_of_float" "caml_int64_bits_of_float_unboxed"
  [@@unboxed] [@@noalloc]

external to_float : t -> float
  = "caml_int64_float_of_bits" "caml_int64_float_of_bits_unboxed"
  [@@unboxed] [@@noalloc]

let zero : t = 0L
let one : t = 1L
let truth (b : bool) : t = if b then 1L else 0L
let is_true (v : t) : bool = not (Int64.equal v 0L)

(** [flip_bit v b] returns [v] with bit [b] (0 = least significant)
    inverted.  Flipping the same bit twice restores the value. *)
let flip_bit (v : t) (b : int) : t =
  if b < 0 || b > 63 then invalid_arg "Value.flip_bit: bit out of range";
  Int64.logxor v (Int64.shift_left 1L b)

(** Number of bit positions at which two patterns differ. *)
let hamming_distance (a : t) (b : t) : int =
  let rec count x acc =
    if Int64.equal x 0L then acc
    else count (Int64.shift_right_logical x 1) (acc + Int64.to_int (Int64.logand x 1L))
  in
  count (Int64.logxor a b) 0

(** Relative error of a faulty float value with respect to its correct
    value (Equation 2 of the paper).  Returns [infinity] when the
    correct value is zero and the faulty one is not, and [nan] when
    either pattern decodes to a NaN. *)
let error_magnitude ~correct ~faulty : float =
  let c = to_float correct and f = to_float faulty in
  if Float.is_nan c || Float.is_nan f then Float.nan
  else if Float.equal c f then 0.0
  else if Float.equal c 0.0 then Float.infinity
  else Float.abs (c -. f) /. Float.abs c

let equal : t -> t -> bool = Int64.equal
let compare : t -> t -> int = Int64.compare

let pp_bits ppf (v : t) = Fmt.pf ppf "0x%Lx" v

let pp_typed ty ppf (v : t) =
  match (ty : Ty.t) with
  | Ty.I64 -> Fmt.pf ppf "%Ld" v
  | Ty.F64 -> Fmt.pf ppf "%.17g" (to_float v)
