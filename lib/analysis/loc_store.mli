(** Dense per-location slots: memory words by address, registers by
    activation then register number, in growable arrays.  For the
    locations VM traces produce (addresses and activation ids below
    2^20, register numbers below 2^10) [get] and [set] neither hash nor
    allocate, except when a slot array grows; any other location lives
    in a hash table, so no location can force a large allocation.  Every
    location not yet set reads as the store's default. *)

type 'a t

val create : 'a -> 'a t
(** An empty store whose slots all read as the given default. *)

val get : 'a t -> Loc.t -> 'a
val set : 'a t -> Loc.t -> 'a -> unit

val fold : (Loc.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over the slots that hold something other than the default
    (compared physically), in no particular order. *)
