(** Structured infrastructure-failure taxonomy for the campaign
    server, extending {!Executor.Infra_error}'s single kind (a raising
    trial) with the failure modes of a multi-process scheduler.  Causes
    render to stable [infra/<kind>: ...] strings that survive the
    journal round-trip. *)

type cause =
  | Trial_raised of { idx : int; message : string }
  | Worker_lost of { pid : int; batch : int option }
  | Lease_expired of { batch : int; pid : int; heartbeat_s : float }
  | Wire_fault of { message : string }
  | Load_failed of { cid : string; reason : string }

val kind : cause -> string
(** [trial], [worker-lost], [lease-expired], [wire], or [load-failed]. *)

val to_message : cause -> string
(** The journal/report rendering: [infra/<kind>: <details>]. *)

val kind_of_message : string -> string
(** Re-classify a journaled infra message; pre-taxonomy executor
    messages ([trial %d: ...]) classify as [trial], anything else as
    [unknown]. *)

val poison_message : batch:int -> attempts:int -> cause -> string
(** Why a batch that exhausted its lease attempts poisoned its
    campaign; the campaign is refused rather than padded with
    fabricated counts. *)
