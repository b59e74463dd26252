(** Refreshable wall-clock deadlines for supervising workers.

    A hung trial is caught by the VM's instruction budget, which is
    deterministic; wall-clock time only decides whether a {e worker} is
    still alive.  A campaign server needs a deadline that is pushed out
    every time the worker proves liveness (any frame it sends) and is
    polled, not raised, because the supervisor owns the control flow. *)

type deadline = {
  d_seconds : float;
  mutable d_expires : float;  (* absolute, Unix.gettimeofday scale *)
}

let arm ~(seconds : float) : deadline =
  { d_seconds = seconds; d_expires = Unix.gettimeofday () +. seconds }

let refresh (d : deadline) : unit =
  d.d_expires <- Unix.gettimeofday () +. d.d_seconds

let deadline_expired (d : deadline) : bool = Unix.gettimeofday () > d.d_expires
