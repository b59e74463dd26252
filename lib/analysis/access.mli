(** Per-location access index: for every location, the ordered sequence
    of reads and writes.  The liveness side of the ACL table — a
    corrupted location is {e alive} at time [t] iff it is read again
    after [t] before being overwritten.

    Each access is stored as one packed int, [index lsl 1 lor is_write],
    and each location's accesses sit contiguously in one flat int array
    (a counting sort of the trace's accesses by location), so the index
    costs about one word per access and queries binary-search a slice. *)

type kind = Read | Write

type t

type fate =
  [ `Dies_after_read of int * int option
    (** last read before the next write, and that write if any *)
  | `Overwritten_at of int  (** a write comes before any read *)
  | `Never_used ]

val index : ((Trace.event -> unit) -> unit) -> t
(** [index iter] indexes the events [iter] passes to its callback, in
    order (events are indexed by their position), e.g. a replay of a
    run streaming into a {!Machine} sink.  Each domain keeps the
    unsorted access buffer of its largest build (one word per access)
    and reuses it for the next one. *)

val build : Trace.t -> t

val build_seq : Trace.event Seq.t -> t
(** Build the index in one pass over an event stream (events are
    indexed by their position in the sequence). *)

val events : t -> int
(** The number of events indexed. *)

val accesses : t -> Loc.t -> (int * kind) array
(** Sorted (event index, kind) accesses, decoded from the packed slice;
    [| |] for untouched locations.  Within one event, reads come before
    writes. *)

val fate : t -> Loc.t -> after:int -> fate
(** The fate of the value established in [loc] at event [after]:
    [`Dies_after_read (r, next_write)] when it is read (last at [r])
    before the next write (at [next_write], if any), [`Overwritten_at w]
    when a write at [w] comes first, [`Never_used] when no access
    follows. *)

val alive : t -> Loc.t -> after:int -> bool
(** Will the value established at [after] be read again before being
    overwritten? *)

val read_in : t -> Loc.t -> lo:int -> hi:int -> bool
val written_in : t -> Loc.t -> lo:int -> hi:int -> bool
(** Is [loc] read (written) at some event index in [[lo, hi)]? *)
