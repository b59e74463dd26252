(** Dense per-location slots, indexed by {!Loc.key}: memory words by
    address, registers by activation then register number, in growable
    arrays.  For the locations VM traces produce (addresses and
    activation ids below 2^20, register numbers below 2^10) [get_key]
    and [set_key] neither hash nor allocate, except when a slot array
    grows; any other key lives in a hash table, so no location can force
    a large allocation, and hand-made or damaged traces still load.
    Every location not yet set reads as the store's default. *)

type 'a t

val create : 'a -> 'a t
(** An empty store whose slots all read as the given default. *)

val get_key : 'a t -> int -> 'a
val set_key : 'a t -> int -> 'a -> unit

val get : 'a t -> Loc.t -> 'a
(** [get t loc] is [get_key t (Loc.key loc)]. *)

val set : 'a t -> Loc.t -> 'a -> unit

val fold : (Loc.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over the slots that hold something other than the default
    (compared physically), in no particular order. *)
