(** Dynamic instruction traces: one event per executed instruction,
    carrying the locations read and written with their values, the
    source line, and the effective code region / region instance /
    main-loop iteration stamps the analyses rely on.

    Events travel in three shapes:
    {ul
    {- a {!cursor}: the one mutable event the VM fills and hands to its
       sink for each instruction, locations as {!Loc.key}s and values
       unboxed.  It is valid only during the sink's callback;}
    {- a stored trace {!t}, kept in columns: per event, six int words
       (seq; fidx, pc and line packed; activation; region, instance and
       iteration packed; op code and read count; access offset), and
       per access one int key and one unboxed int64 value.  About 10
       words per event on LULESH (the boxed events it replaces took
       31);}
    {- an {!event} record, built on demand by {!get} and
       {!event_of_cursor} for cold paths (codecs, printing, tests).}}

    The hot readers of a stored trace (alignment, the access index,
    region instances) use the field accessors and {!keys}/{!values}
    directly, and build no event. *)

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

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type cursor = {
  mutable seq : int;
  mutable fidx : int;
  mutable pc : int;
  mutable act : int;
  mutable line : int;
  mutable region : int;
  mutable instance : int;
  mutable iter : int;
  mutable op : opclass;
  mutable nreads : int;
  mutable nwrites : int;
  mutable rkeys : int array;  (** read [k]'s location key, [k < nreads] *)
  mutable rvals : ba;  (** read [k]'s value *)
  mutable wkeys : int array;  (** write [k]'s location key, [k < nwrites] *)
  mutable wvals : ba;
}
(** One event being passed from a producer to a consumer.  The arrays
    may hold more slots than the counts; only the first [nreads] /
    [nwrites] mean anything.  A producer reuses one cursor for every
    event, so a consumer that keeps an event copies it ({!push},
    {!event_of_cursor}). *)

type event = {
  seq : int;
      (** dynamic instruction index, from 0.  Not always the event's
          position: the return-value write of a call is a second event
          with the call's seq *)
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

val cursor : unit -> cursor
(** A fresh cursor with room for a few accesses. *)

val reserve_cursor : cursor -> reads:int -> writes:int -> unit
(** Grow the cursor's access arrays to hold at least that many. *)

val event_of_cursor : cursor -> event

type t
(** A growable, column-stored event sequence. *)

val create : unit -> t

val push : t -> cursor -> unit
(** Append a copy of the cursor's event. *)

val push_event : t -> event -> unit

val trim : t -> unit
(** Release the spare capacity growth left; call once a trace is
    complete. *)

val length : t -> int

val footprint_words : t -> int
(** Words the trace holds: its heap blocks plus its values array, and
    its {!slots} once computed. *)

val get : t -> int -> event
(** Event [i], built from the columns.
    @raise Invalid_argument out of bounds. *)

val load : t -> int -> cursor -> unit
(** Fill the cursor with event [i]. *)

val replay : t -> (cursor -> unit) -> unit
(** Pass every event in order to the callback through one cursor: a
    stored trace as a replay producer. *)

(** {2 Field accessors}

    Event [i]'s fields, read from the columns without building the
    event.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val seq : t -> int -> int
val fidx : t -> int -> int
val pc : t -> int -> int
val act : t -> int -> int
val line : t -> int -> int
val region : t -> int -> int
val instance : t -> int -> int
val iter_at : t -> int -> int
val op : t -> int -> opclass
val nreads : t -> int -> int
val nwrites : t -> int -> int

val reads_at : t -> int -> int
(** Position of event [i]'s first read in {!keys} and {!values}; its
    reads are the [nreads t i] positions from there. *)

val writes_at : t -> int -> int
(** Position of event [i]'s first write; [nwrites t i] follow. *)

val naccesses : t -> int
(** Reads plus writes over all events: the used length of {!keys} and
    {!values}. *)

val keys : t -> int array
(** The location keys of every access, by position.  Valid until the
    next {!push}. *)

val values : t -> ba
(** The values of every access, by position.  Valid until the next
    {!push}. *)

(** {2 The slot numbering}

    A trace's locations numbered densely, in the order the trace first
    touches them, with the slot of every access as a compact column
    beside {!keys}.  Analyses that shadow the clean run index flat
    arrays by slot: a faulty access whose key equals the clean key at
    the same position takes the column's slot, with no lookup. *)

type slots
(** One trace's numbering. *)

type slot_col = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val slots : t -> slots
(** The numbering of the trace's accesses so far: computed on the first
    call, then kept with the trace until a {!push} adds an access.  Safe
    to call from several domains at once. *)

val slot_column : slots -> slot_col
(** The slot of every access, by position in {!keys}. *)

val nslots : slots -> int
(** The number of distinct locations: slots are [0 .. nslots - 1]. *)

val slot_of_key : slots -> int -> int
(** The slot of a {!Loc.key}, or -1 for a location the trace never
    touches. *)

val spans : t -> int -> int array -> bool
(** [spans t i span]: is [i] an event of [t]?  If so, [span.(0)],
    [span.(1)] and [span.(2)] receive its {!reads_at}, {!nreads} and
    {!nwrites}, in one call. *)

val aligned_spans : t -> int -> cursor -> int array -> bool
(** [spans], and does event [i] run the cursor's function and pc?  One
    call for a step of alignment. *)

(** {2 Whole-trace traversals (events built on demand)} *)

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
