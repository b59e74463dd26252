(** Message vocabulary of the campaign service: client <-> server over
    the Unix-domain socket, server <-> worker over the fork's
    socketpair or a remote worker's TCP stream.  One csexp per message,
    carried in a {!Wire} frame.  Worker-side trial messages carry the
    campaign id they belong to (the pool is multi-tenant); the
    client-side vocabulary addresses finished campaigns by id
    ([Fetch]/[Watch]) so a dropped connection never loses a result. *)

type client_msg =
  | Submit of { spec : Campaign.spec; resume_id : string option }
  | Status
  | Fetch of { id : string }
  | Watch of { id : string }
  | Shutdown

type tenant_status = {
  tn_id : string;
  tn_app : string;
  tn_state : string;  (** [queued], [active], [done], or [poisoned] *)
  tn_completed : int;
  tn_planned : int;
  tn_leases : int;  (** batches this campaign holds across the pool *)
  tn_steals : int;  (** leases stolen back from dead workers *)
}

type status_info = {
  st_state : string;  (** [idle] or [running] *)
  st_completed : int;
  st_planned : int;
  st_campaigns : int;  (** campaigns finished since the server started *)
  st_queued : int;  (** admission-queue depth *)
  st_active : int;  (** campaigns currently scheduled on the pool *)
  st_workers : int;  (** pool size, forked and remote together *)
  st_tenants : tenant_status list;
}

type server_msg =
  | Accepted of { id : string }
  | Rejected of { reason : string }
  | Progress of { id : string; completed : int; planned : int; stolen : int }
  | Result of { id : string; counts : Campaign.counts }
  | Poisoned of { id : string; reason : string }
  | Queued_reply of { id : string; position : int }
  | Status_reply of status_info
  | Bye

val client_to_csexp : client_msg -> Csexp.t
val client_of_csexp : Csexp.t -> (client_msg, string) result
val server_to_csexp : server_msg -> Csexp.t
val server_of_csexp : Csexp.t -> (server_msg, string) result

type to_worker =
  | Load of { cid : string; spec : Campaign.spec }
  | Lease of { cid : string; batch : int; lo : int; hi : int }
  | Forget of { cid : string }
      (** the campaign finished, was poisoned or failed: drop it *)
  | Quit

type from_worker =
  | Ready of { pid : int }
  | Loaded of { cid : string }
  | Load_failed of { cid : string; reason : string }
  | Trial of { cid : string; record : Csexp.t }
  | Batch_done of { cid : string; batch : int; retries : int }

val to_worker_to_csexp : to_worker -> Csexp.t
val to_worker_of_csexp : Csexp.t -> (to_worker, string) result
val from_worker_to_csexp : from_worker -> Csexp.t
val from_worker_of_csexp : Csexp.t -> (from_worker, string) result
