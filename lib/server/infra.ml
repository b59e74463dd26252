(** Structured infrastructure-failure taxonomy for the campaign server.

    The executor already separates experiment outcomes from
    infrastructure failures ({!Executor.Infra_error}), but it only ever
    produces one kind — a trial that kept raising.  A multi-process
    server has more ways to lose work, and operators need to tell them
    apart: a worker the kernel killed is not a flaky trial, and a lease
    that timed out twice on the same batch suggests a poisoned input,
    not a scheduling glitch.  Causes render to stable
    [infra/<kind>: ...] strings so they survive the journal round-trip
    (the journal stores infra errors as plain messages) and can be
    re-classified on inspection. *)

type cause =
  | Trial_raised of { idx : int; message : string }
      (** the classic executor case: the trial function kept raising *)
  | Worker_lost of { pid : int; batch : int option }
      (** a worker process died (crash or SIGKILL) holding a lease *)
  | Lease_expired of { batch : int; pid : int; heartbeat_s : float }
      (** a leased worker sent nothing for a whole deadline period *)
  | Wire_fault of { message : string }
      (** the transport gave up: corruption past the resend window *)
  | Load_failed of { cid : string; reason : string }
      (** no worker can rebuild this campaign from its wire spec *)

let kind = function
  | Trial_raised _ -> "trial"
  | Worker_lost _ -> "worker-lost"
  | Lease_expired _ -> "lease-expired"
  | Wire_fault _ -> "wire"
  | Load_failed _ -> "load-failed"

let to_message (c : cause) : string =
  match c with
  | Trial_raised { idx; message } ->
      Printf.sprintf "infra/trial: trial %d: %s" idx message
  | Worker_lost { pid; batch } ->
      Printf.sprintf "infra/worker-lost: pid %d died%s" pid
        (match batch with
        | Some b -> Printf.sprintf " holding batch %d" b
        | None -> " idle")
  | Lease_expired { batch; pid; heartbeat_s } ->
      Printf.sprintf
        "infra/lease-expired: batch %d on pid %d missed its %.1fs heartbeat \
         deadline"
        batch pid heartbeat_s
  | Wire_fault { message } -> Printf.sprintf "infra/wire: %s" message
  | Load_failed { cid; reason } ->
      Printf.sprintf "infra/load-failed: campaign %s: %s" cid reason

(** The [<kind>] token of a journaled infra message.  Messages written
    before the taxonomy existed (bare ["trial %d: ..."] strings from
    the in-process executor) classify as ["trial"]; anything else is
    ["unknown"]. *)
let kind_of_message (m : string) : string =
  let prefixed p = String.length m >= String.length p
                   && String.equal (String.sub m 0 (String.length p)) p in
  if prefixed "infra/" then
    match String.index_opt m ':' with
    | Some i -> String.sub m 6 (i - 6)
    | None -> "unknown"
  else if prefixed "trial " then "trial"
  else "unknown"

let poison_message ~(batch : int) ~(attempts : int) (cause : cause) : string =
  Printf.sprintf "batch %d failed %d lease attempts (last: %s)" batch attempts
    (to_message cause)
