(** Dynamic instruction traces: one event per executed instruction,
    carrying the locations read and written with their values, the
    source line, and the effective code region / region instance /
    main-loop iteration stamps the analyses rely on. *)

type opclass =
  | OConst
  | OBin of Op.bin
  | OUn of Op.un
  | OLoad
  | OStore
  | OJmp
  | OBr of bool  (** taken direction of the branch *)
  | OCall
  | ORet
  | OIntr of string
      (** intrinsic name; prints are encoded as ["print:<format>"] so
          analyses can re-render values *)
  | OMark of int

type event = {
  seq : int;   (** dynamic instruction index, from 0 *)
  fidx : int;
  pc : int;
  act : int;   (** activation id of the executing frame *)
  line : int;
  region : int;
      (** effective region: the instruction's static region, or the
          call site's region inside callees; -1 outside all regions *)
  instance : int;  (** region instance number, or -1 *)
  iter : int;      (** main-loop iteration, or -1 before the marker *)
  op : opclass;
  reads : (Loc.t * Value.t) array;
  writes : (Loc.t * Value.t) array;
}

type t
(** A growable event sequence. *)

val create : unit -> t
val push : t -> event -> unit
val length : t -> int

val get : t -> int -> event
(** @raise Invalid_argument out of bounds. *)

val iter : (event -> unit) -> t -> unit
val iteri : (int -> event -> unit) -> t -> unit
val fold : ('a -> event -> 'a) -> 'a -> t -> 'a

val to_seq : t -> event Seq.t
(** Events in order as a lazy sequence; reflects the trace as of each
    force (restartable while the trace is not mutated). *)

val slice : t -> int -> int -> event array
(** Events [lo, hi) as a fresh array.
    @raise Invalid_argument on bad bounds. *)

val control_signature : event -> int * int
(** [(fidx, pc)]: equality of signatures along two traces means the
    runs followed the same control path. *)

val same_control : event -> event -> bool
(** Do two events have equal {!control_signature}s?  Compares the fields
    without building the pairs. *)

val pp_opclass : Format.formatter -> opclass -> unit
val pp_event : Format.formatter -> event -> unit
