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

val build : Trace.t -> t
(** The index of a stored trace's events (events are indexed by their
    position). *)

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
