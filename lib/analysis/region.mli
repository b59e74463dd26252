(** Code-region instances in a dynamic trace: the chain of dynamic
    executions of the paper's code regions (first-level inner loops of
    the main loop, or the blocks between them). *)

type instance = {
  rid : int;     (** region id, index into [Prog.region_table] *)
  number : int;  (** instance number of this region, 0-based *)
  lo : int;      (** first event index (inclusive) *)
  hi : int;      (** last event index (exclusive) *)
  iter : int;    (** main-loop iteration the instance started in *)
}

val instances : Trace.t -> instance list
(** The chain of region instances, in execution order. *)

val instances_of : Trace.t -> int -> instance list
val find_instance : Trace.t -> rid:int -> number:int -> instance option
val size : instance -> int

val iteration_spans : Trace.t -> (int * (int * int)) list
(** Event-index span of each main-loop iteration, ordered by iteration
    number (setup code before the first marker is excluded). *)

val pp_instance : Format.formatter -> instance -> unit
