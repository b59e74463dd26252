(** The campaign service's message vocabulary, in both directions:
    client <-> server over a Unix-domain socket, and server <-> worker
    over the socketpair a fork leaves behind {e or} a TCP stream a
    remote worker attached.  Every message is one csexp travelling in a
    {!Wire} frame; constructors and parsers live together here so the
    two sides cannot drift.

    Campaigns are multi-tenant: every worker-side message that touches
    trial state carries the campaign id it belongs to, and the
    client-side vocabulary can address a campaign by id after the
    submitting connection is long gone ([Fetch]/[Watch]). *)

(* --- client <-> server -------------------------------------------------- *)

type client_msg =
  | Submit of { spec : Campaign.spec; resume_id : string option }
      (** enqueue a campaign; [resume_id] reopens a previous
          submission's journal instead of starting fresh *)
  | Status
  | Fetch of { id : string }
      (** one-shot: the campaign's current state or final verdict *)
  | Watch of { id : string }
      (** subscribe: progress frames until the final verdict *)
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
  st_completed : int;  (** trials done across active campaigns *)
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
      (** [Fetch] answer for a campaign still waiting for admission *)
  | Status_reply of status_info
  | Bye

let client_to_csexp (m : client_msg) : Csexp.t =
  let open Csexp in
  match m with
  | Submit { spec; resume_id } ->
      List
        (Atom "submit" :: Campaign.spec_to_csexp spec
        :: (match resume_id with None -> [] | Some id -> [ Atom id ]))
  | Status -> List [ Atom "status" ]
  | Fetch { id } -> List [ Atom "fetch"; Atom id ]
  | Watch { id } -> List [ Atom "watch"; Atom id ]
  | Shutdown -> List [ Atom "shutdown" ]

let client_of_csexp (c : Csexp.t) : (client_msg, string) result =
  let open Csexp in
  match c with
  | List [ Atom "submit"; s ] ->
      Result.map
        (fun spec -> Submit { spec; resume_id = None })
        (Campaign.spec_of_csexp s)
  | List [ Atom "submit"; s; Atom id ] ->
      Result.map
        (fun spec -> Submit { spec; resume_id = Some id })
        (Campaign.spec_of_csexp s)
  | List [ Atom "status" ] -> Ok Status
  | List [ Atom "fetch"; Atom id ] -> Ok (Fetch { id })
  | List [ Atom "watch"; Atom id ] -> Ok (Watch { id })
  | List [ Atom "shutdown" ] -> Ok Shutdown
  | other -> Error ("unknown client message: " ^ Csexp.to_string other)

let tenant_to_csexp (t : tenant_status) : Csexp.t =
  let open Csexp in
  let i = string_of_int in
  List
    [
      Atom t.tn_id; Atom t.tn_app; Atom t.tn_state; Atom (i t.tn_completed);
      Atom (i t.tn_planned); Atom (i t.tn_leases); Atom (i t.tn_steals);
    ]

let tenant_of_csexp (c : Csexp.t) : (tenant_status, string) result =
  let open Csexp in
  match c with
  | List
      [
        Atom tn_id; Atom tn_app; Atom tn_state; Atom c'; Atom p; Atom l; Atom s;
      ] -> (
      match
        ( int_of_string_opt c', int_of_string_opt p, int_of_string_opt l,
          int_of_string_opt s )
      with
      | Some tn_completed, Some tn_planned, Some tn_leases, Some tn_steals ->
          Ok
            {
              tn_id; tn_app; tn_state; tn_completed; tn_planned; tn_leases;
              tn_steals;
            }
      | _ -> Error "tenant row: bad integers")
  | other -> Error ("bad tenant row: " ^ Csexp.to_string other)

let server_to_csexp (m : server_msg) : Csexp.t =
  let open Csexp in
  let i = string_of_int in
  match m with
  | Accepted { id } -> List [ Atom "accepted"; Atom id ]
  | Rejected { reason } -> List [ Atom "rejected"; Atom reason ]
  | Progress { id; completed; planned; stolen } ->
      List
        [
          Atom "progress"; Atom id; Atom (i completed); Atom (i planned);
          Atom (i stolen);
        ]
  | Result { id; counts } ->
      List [ Atom "result"; Atom id; Campaign.counts_to_csexp counts ]
  | Poisoned { id; reason } -> List [ Atom "poisoned"; Atom id; Atom reason ]
  | Queued_reply { id; position } ->
      List [ Atom "queued"; Atom id; Atom (i position) ]
  | Status_reply s ->
      List
        [
          Atom "status-reply"; Atom s.st_state; Atom (i s.st_completed);
          Atom (i s.st_planned); Atom (i s.st_campaigns); Atom (i s.st_queued);
          Atom (i s.st_active); Atom (i s.st_workers);
          List (List.map tenant_to_csexp s.st_tenants);
        ]
  | Bye -> List [ Atom "bye" ]

let server_of_csexp (c : Csexp.t) : (server_msg, string) result =
  let open Csexp in
  let int name a k =
    match int_of_string_opt a with
    | Some v -> k v
    | None -> Error (Printf.sprintf "%s: bad integer %S" name a)
  in
  match c with
  | List [ Atom "accepted"; Atom id ] -> Ok (Accepted { id })
  | List [ Atom "rejected"; Atom reason ] -> Ok (Rejected { reason })
  | List [ Atom "progress"; Atom id; Atom c; Atom p; Atom s ] ->
      int "progress" c (fun completed ->
          int "progress" p (fun planned ->
              int "progress" s (fun stolen ->
                  Ok (Progress { id; completed; planned; stolen }))))
  | List [ Atom "result"; Atom id; counts ] ->
      Result.map
        (fun counts -> Result { id; counts })
        (Campaign.counts_of_csexp counts)
  | List [ Atom "poisoned"; Atom id; Atom reason ] ->
      Ok (Poisoned { id; reason })
  | List [ Atom "queued"; Atom id; Atom p ] ->
      int "queued" p (fun position -> Ok (Queued_reply { id; position }))
  | List
      [
        Atom "status-reply"; Atom state; Atom c; Atom p; Atom n; Atom q; Atom a;
        Atom w; List tenants;
      ] ->
      int "status" c (fun st_completed ->
          int "status" p (fun st_planned ->
              int "status" n (fun st_campaigns ->
                  int "status" q (fun st_queued ->
                      int "status" a (fun st_active ->
                          int "status" w (fun st_workers ->
                              let rec rows acc = function
                                | [] -> Ok (List.rev acc)
                                | t :: rest -> (
                                    match tenant_of_csexp t with
                                    | Ok t -> rows (t :: acc) rest
                                    | Error e -> Error e)
                              in
                              Result.map
                                (fun st_tenants ->
                                  Status_reply
                                    {
                                      st_state = state; st_completed;
                                      st_planned; st_campaigns; st_queued;
                                      st_active; st_workers; st_tenants;
                                    })
                                (rows [] tenants)))))))
  | List [ Atom "bye" ] -> Ok Bye
  | other -> Error ("unknown server message: " ^ Csexp.to_string other)

(* --- server <-> worker -------------------------------------------------- *)

type to_worker =
  | Load of { cid : string; spec : Campaign.spec }
      (** rebuild this campaign's trial kernel (plan-cache warm) and
          answer [Loaded] or [Load_failed] *)
  | Lease of { cid : string; batch : int; lo : int; hi : int }
      (** run trials [lo, hi) of campaign [cid], streaming each back *)
  | Forget of { cid : string }
      (** campaign [cid] is over: drop its trial kernel (a later
          [Lease] for it is answered with [Load_failed]) *)
  | Quit

type from_worker =
  | Ready of { pid : int }
  | Loaded of { cid : string }
  | Load_failed of { cid : string; reason : string }
      (** also the answer to a [Lease] for a campaign the worker cannot
          serve — the scheduler steals the batch back *)
  | Trial of { cid : string; record : Csexp.t }
      (** one {!Executor.trial_record} — appended to [cid]'s shard
          journal verbatim, which is what keeps server-mode journals
          interchangeable with [--jobs 1] journals *)
  | Batch_done of { cid : string; batch : int; retries : int }

let to_worker_to_csexp (m : to_worker) : Csexp.t =
  let open Csexp in
  let i = string_of_int in
  match m with
  | Load { cid; spec } ->
      List [ Atom "load"; Atom cid; Campaign.spec_to_csexp spec ]
  | Lease { cid; batch; lo; hi } ->
      List [ Atom "lease"; Atom cid; Atom (i batch); Atom (i lo); Atom (i hi) ]
  | Forget { cid } -> List [ Atom "forget"; Atom cid ]
  | Quit -> List [ Atom "quit" ]

let to_worker_of_csexp (c : Csexp.t) : (to_worker, string) result =
  let open Csexp in
  match c with
  | List [ Atom "load"; Atom cid; s ] ->
      Result.map (fun spec -> Load { cid; spec }) (Campaign.spec_of_csexp s)
  | List [ Atom "lease"; Atom cid; Atom b; Atom lo; Atom hi ] -> (
      match
        (int_of_string_opt b, int_of_string_opt lo, int_of_string_opt hi)
      with
      | Some batch, Some lo, Some hi -> Ok (Lease { cid; batch; lo; hi })
      | _ -> Error "lease: bad integers")
  | List [ Atom "forget"; Atom cid ] -> Ok (Forget { cid })
  | List [ Atom "quit" ] -> Ok Quit
  | other -> Error ("unknown worker command: " ^ Csexp.to_string other)

let from_worker_to_csexp (m : from_worker) : Csexp.t =
  let open Csexp in
  let i = string_of_int in
  match m with
  | Ready { pid } -> List [ Atom "ready"; Atom (i pid) ]
  | Loaded { cid } -> List [ Atom "loaded"; Atom cid ]
  | Load_failed { cid; reason } ->
      List [ Atom "loadfail"; Atom cid; Atom reason ]
  | Trial { cid; record } -> List [ Atom "T"; Atom cid; record ]
  | Batch_done { cid; batch; retries } ->
      List [ Atom "done"; Atom cid; Atom (i batch); Atom (i retries) ]

let from_worker_of_csexp (c : Csexp.t) : (from_worker, string) result =
  let open Csexp in
  match c with
  | List [ Atom "ready"; Atom pid ] -> (
      match int_of_string_opt pid with
      | Some pid -> Ok (Ready { pid })
      | None -> Error "ready: bad pid")
  | List [ Atom "loaded"; Atom cid ] -> Ok (Loaded { cid })
  | List [ Atom "loadfail"; Atom cid; Atom reason ] ->
      Ok (Load_failed { cid; reason })
  | List [ Atom "T"; Atom cid; record ] -> Ok (Trial { cid; record })
  | List [ Atom "done"; Atom cid; Atom b; Atom r ] -> (
      match (int_of_string_opt b, int_of_string_opt r) with
      | Some batch, Some retries -> Ok (Batch_done { cid; batch; retries })
      | _ -> Error "done: bad integers")
  | other -> Error ("unknown worker message: " ^ Csexp.to_string other)
