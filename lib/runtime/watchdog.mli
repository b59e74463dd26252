(** Refreshable polled wall-clock deadlines, for supervising workers:
    armed with a period, pushed out on every proof of liveness, and
    polled by the supervisor (never raises).  Trial hangs are the
    instruction budget's business, not this module's. *)

type deadline

val arm : seconds:float -> deadline

val refresh : deadline -> unit
(** Push the deadline out by its full period again. *)

val deadline_expired : deadline -> bool
