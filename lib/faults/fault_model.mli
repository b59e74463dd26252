(** Fault models: what one injected fault does to its target datum,
    as one {!Machine.corruption} (an and/or/xor mask; a single-bit
    flip is the mask [Machine.flip b]).  Site selection (which
    instruction / memory word) stays in {!Campaign} and is shared by
    all models, so paired campaigns under a common RNG stream differ
    only in the corruption applied.
    [Single_bit] draws exactly one [Rng.int], keeping default-model
    campaigns count-identical to their historical results. *)

type t =
  | Single_bit  (** flip one uniformly chosen bit *)
  | Double_adjacent
      (** flip two adjacent bits (a 2-bit multi-cell upset) *)
  | Burst of int
      (** flip a random non-empty pattern inside a [k]-bit window *)
  | Stuck_at  (** force one uniformly chosen bit to 0 or 1 *)

val to_string : t -> string
(** [single-bit], [double-adjacent], [burst-K], [stuck-at]. *)

val names : string list
(** Concrete spellings for did-you-mean suggestions. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [burst-K] accepts any K in [2,64]. *)

val sample : t -> Rng.t -> bits:int -> Machine.corruption
(** Sample a corruption confined to the low [bits] bits of the datum.
    [Single_bit] returns [Machine.flip b]. *)
