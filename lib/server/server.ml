(** The campaign server: a crash-tolerant, {e multi-tenant} scheduler
    for deterministic trial campaigns, behind one front door, {!serve}.

    The scheduling core lives in {!Sched}: an admission queue feeding
    a fair-share lease engine over one shared worker pool — forked
    children and remote TCP attachments together.  {!serve} is the
    long-running socket service: wire-submitted campaigns are planned
    ({!Plan}), queued, and interleaved across the pool; each runs under
    a deterministic campaign id, journals to [<journal_dir>/<id>.journal]
    in the executor's one-file format, and its finished verdict is
    persisted so a client can [fetch] it long after the submitting
    connection died.

    Determinism is per-tenant: trials depend only on their index,
    records are accumulated first-write-wins in index order, so every
    campaign's counts are byte-identical to its own [--jobs 1] run no
    matter how many tenants interleave or how many workers die.
    [Sched.config]'s [chaos_kills] turns that claim into a test. *)

type config = Sched.config = {
  workers : int;
  batch : int;
  journal_dir : string option;
  heartbeat_s : float;
  max_lease_attempts : int;
  max_active : int;
  chaos_kills : int list;
  retry : Executor.config;
  metrics : Obs.t option;
}

let default_config = Sched.default_config

(* --- the socket front-end ------------------------------------------------ *)

(** Campaign ids are deterministic: the admission ordinal plus a hash
    of the campaign tag.  Two submissions of the same spec get
    {e distinct} ids (and therefore distinct journal files) —
    so identical specs never share a journal. *)
let campaign_id (ordinal : int) (tag : string) : string =
  let h = Cache.key tag in
  Printf.sprintf "c%04d-%s" ordinal (String.sub h 0 (min 10 (String.length h)))

let id_ok (id : string) : bool =
  String.length id > 0
  && String.length id <= 64
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '-' -> true | _ -> false)
       id

(** The next free ordinal in a journal root that already holds
    [cNNNN-*] journals from a previous server life. *)
let next_ordinal (root : string option) : int =
  match root with
  | None -> 1
  | Some dir when Sys.file_exists dir && Sys.is_directory dir ->
      Array.fold_left
        (fun acc name ->
          if
            String.length name >= 5
            && name.[0] = 'c'
            && String.for_all
                 (function '0' .. '9' -> true | _ -> false)
                 (String.sub name 1 4)
          then max acc (1 + int_of_string (String.sub name 1 4))
          else acc)
        1 (Sys.readdir dir)
  | Some _ -> 1

(* one watcher/submitter connection of a campaign *)
type watcher = { wt_conn : Wire.conn; mutable wt_dead : bool }

type tenant_entry = {
  te_id : string;
  mutable te_final :
    (int -> Campaign.outcome_class Executor.outcome array) option;
      (** the outcomes, until the verdict is stored *)
  mutable te_watchers : watcher list;
}

let safe_send (conn : Wire.conn) (m : Proto.server_msg) : bool =
  try
    Wire.send conn (Proto.server_to_csexp m);
    true
  with Wire.Closed | Unix.Unix_error _ -> false

let result_path (root : string) (id : string) =
  Filename.concat (Filename.concat root "results") id

let persist_result (root : string option) (id : string)
    (m : Proto.server_msg) : unit =
  match root with
  | None -> ()
  | Some root -> (
      try
        let dir = Filename.concat root "results" in
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        let path = result_path root id in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_string oc (Csexp.to_string (Proto.server_to_csexp m));
        close_out oc;
        Sys.rename tmp path
      with Sys_error _ | Unix.Unix_error _ -> ())

let load_result (root : string option) (id : string) :
    Proto.server_msg option =
  match root with
  | None -> None
  | Some root -> (
      let path = result_path root id in
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception (Sys_error _ | End_of_file) -> None
      | raw -> (
          match Option.map Proto.server_of_csexp (Csexp.of_string raw) with
          | Some (Ok m) -> Some m
          | Some (Error _) | None -> None))

let serve ?(cfg = default_config) ?(cache_dir : string option)
    ?(worker_bind : string option) ?(worker_port_file : string option)
    ~(socket : string) () : unit =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* workers rebuild campaigns from wire specs through a shared
     content-addressed plan cache; give them one even when the caller
     didn't, so every fork after the first starts warm *)
  let cache_dir =
    match cache_dir with
    | Some d -> Some d
    | None ->
        let d =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ft-plan-cache-%d" (Unix.getpid ()))
        in
        (try if not (Sys.file_exists d) then Unix.mkdir d 0o755
         with Unix.Unix_error _ -> ());
        Some d
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 16;
  (* the remote-worker door: plain TCP; [ft worker --connect] attaches *)
  let wfd =
    match worker_bind with
    | None -> None
    | Some addr -> (
        match Worker.parse_addr addr with
        | Error e -> invalid_arg ("Server.serve: " ^ e)
        | Ok sockaddr ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd sockaddr;
            Unix.listen fd 16;
            (match (worker_port_file, Unix.getsockname fd) with
            | Some path, Unix.ADDR_INET (_, port) ->
                let oc = open_out path in
                output_string oc (string_of_int port);
                close_out oc
            | _ -> ());
            Some fd)
  in
  let root = cfg.journal_dir in
  let entries : (string, tenant_entry) Hashtbl.t = Hashtbl.create 8 in
  let results : (string, Proto.server_msg) Hashtbl.t = Hashtbl.create 8 in
  let pending : (Wire.conn * float) list ref = ref [] in
  let shutdown = ref false in
  let campaigns_done = ref 0 in
  let ordinal = ref (next_ordinal root) in
  let client_fds () =
    List.map (fun (c, _) -> Wire.fd c) !pending
    @ Hashtbl.fold
        (fun _ e acc ->
          List.filter_map
            (fun w -> if w.wt_dead then None else Some (Wire.fd w.wt_conn))
            e.te_watchers
          @ acc)
        entries []
  in
  let spawn ~close_fds =
    let extra = (lfd :: Option.to_list wfd) @ client_fds () in
    Worker.spawn ~recv_timeout_s:3600.0 ~close_fds:(extra @ close_fds)
      ~load:(Worker.plan_loader ?cache_dir)
      ~retry:{ cfg.retry with Executor.metrics = None }
      ()
  in
  let broadcast (e : tenant_entry) (m : Proto.server_msg) =
    List.iter
      (fun w -> if not w.wt_dead then w.wt_dead <- not (safe_send w.wt_conn m))
      e.te_watchers
  in
  let finish_entry (e : tenant_entry) (m : Proto.server_msg) =
    e.te_final <- None;
    Hashtbl.replace results e.te_id m;
    persist_result root e.te_id m;
    incr campaigns_done;
    broadcast e m;
    List.iter (fun w -> Wire.close w.wt_conn) e.te_watchers;
    e.te_watchers <- []
  in
  let on_event id (ev : Sched.event) =
    match Hashtbl.find_opt entries id with
    | None -> ()
    | Some e -> (
        match ev with
        | Sched.Progress { completed; planned; stolen } ->
            broadcast e (Proto.Progress { id; completed; planned; stolen })
        | Sched.Finished { completed; _ } ->
            Option.iter
              (fun final ->
                let counts = Campaign.counts_of_outcomes (final completed) in
                finish_entry e (Proto.Result { id; counts }))
              e.te_final
        | Sched.Poisoned { batch; attempts; cause } ->
            finish_entry e
              (Proto.Poisoned
                 { id; reason = Infra.poison_message ~batch ~attempts cause })
        | Sched.Failed { reason } ->
            finish_entry e
              (Proto.Poisoned { id; reason = "admission failed: " ^ reason }))
  in
  let eng = Sched.create ~cfg ~spawn ~on_event () in
  let tenant_state id =
    List.find_opt (fun s -> s.Sched.ts_id = id) (Sched.stats eng)
  in
  let final_of id =
    match Hashtbl.find_opt results id with
    | Some m -> Some m
    | None -> (
        match load_result root id with
        | Some m ->
            Hashtbl.replace results id m;
            Some m
        | None -> None)
  in
  let watch_entry id conn =
    match Hashtbl.find_opt entries id with
    | Some e ->
        e.te_watchers <- { wt_conn = conn; wt_dead = false } :: e.te_watchers
    | None -> Wire.close conn
  in
  (* enqueue one wire submission: plan (cache-warm), mint the id, hand
     the engine a job; it journals to the id's own file *)
  let submit conn (spec : Campaign.spec) (resume_id : string option) =
    let reject reason =
      ignore (safe_send conn (Proto.Rejected { reason }));
      Wire.close conn
    in
    match resume_id with
    | Some id when not (id_ok id) ->
        reject (Printf.sprintf "bad campaign id %S" id)
    | _ -> (
        let already =
          match resume_id with
          | Some id when Hashtbl.mem entries id ->
              (* the campaign is live (or queued): re-attach instead of
                 resubmitting *)
              Some id
          | _ -> None
        in
        match already with
        | Some id ->
            if safe_send conn (Proto.Accepted { id }) then (
              match final_of id with
              | Some m ->
                  ignore (safe_send conn m);
                  Wire.close conn
              | None -> watch_entry id conn)
            else Wire.close conn
        | None -> (
            match Plan.plan_of_app ?cache_dir spec.Campaign.sp_app with
            | Error e -> reject e
            | Ok plan -> (
                let ccfg = Campaign.config_of_spec spec in
                let ex_spec = Plan.campaign_spec plan ccfg in
                let id =
                  match resume_id with
                  | Some id -> id
                  | None ->
                      let id = campaign_id !ordinal ex_spec.Executor.tag in
                      incr ordinal;
                      id
                in
                let job, final = Sched.tenant ~id spec ex_spec in
                match Sched.submit eng job with
                | Error e -> reject e
                | Ok () ->
                    Hashtbl.replace entries id
                      { te_id = id; te_final = Some final; te_watchers = [] };
                    if safe_send conn (Proto.Accepted { id }) then
                      watch_entry id conn
                    else Wire.close conn)))
  in
  let answer_status conn =
    let stats = Sched.stats eng in
    let tenants =
      List.map
        (fun s ->
          {
            Proto.tn_id = s.Sched.ts_id;
            tn_app = s.Sched.ts_app;
            tn_state = s.Sched.ts_state;
            tn_completed = s.Sched.ts_completed;
            tn_planned = s.Sched.ts_planned;
            tn_leases = s.Sched.ts_leases;
            tn_steals = s.Sched.ts_steals;
          })
        stats
    in
    let active = List.filter (fun s -> s.Sched.ts_state = "active") stats in
    let sum f = List.fold_left (fun a s -> a + f s) 0 active in
    ignore
      (safe_send conn
         (Proto.Status_reply
            {
              Proto.st_state =
                (if active <> [] then "running" else "idle");
              st_completed = sum (fun s -> s.Sched.ts_completed);
              st_planned = sum (fun s -> s.Sched.ts_planned);
              st_campaigns = !campaigns_done;
              st_queued = Sched.queue_depth eng;
              st_active = Sched.active_count eng;
              st_workers = Sched.worker_count eng;
              st_tenants = tenants;
            }));
    Wire.close conn
  in
  let answer_fetch conn id =
    (match final_of id with
    | Some m -> ignore (safe_send conn m)
    | None -> (
        match tenant_state id with
        | Some s when s.Sched.ts_state = "queued" ->
            let position =
              let rec pos n = function
                | [] -> n
                | s' :: rest ->
                    if s'.Sched.ts_id = id then n
                    else if s'.Sched.ts_state = "queued" then pos (n + 1) rest
                    else pos n rest
              in
              pos 1 (Sched.stats eng)
            in
            ignore (safe_send conn (Proto.Queued_reply { id; position }))
        | Some s ->
            ignore
              (safe_send conn
                 (Proto.Progress
                    {
                      id;
                      completed = s.Sched.ts_completed;
                      planned = s.Sched.ts_planned;
                      stolen = s.Sched.ts_steals;
                    }))
        | None ->
            ignore
              (safe_send conn
                 (Proto.Rejected
                    { reason = Printf.sprintf "unknown campaign id %s" id }))));
    Wire.close conn
  in
  let answer_watch conn id =
    match final_of id with
    | Some m ->
        ignore (safe_send conn m);
        Wire.close conn
    | None ->
        if Hashtbl.mem entries id then watch_entry id conn
        else begin
          ignore
            (safe_send conn
               (Proto.Rejected
                  { reason = Printf.sprintf "unknown campaign id %s" id }));
          Wire.close conn
        end
  in
  let dispatch conn (m : Proto.client_msg) =
    match m with
    | Proto.Submit { spec; resume_id } -> submit conn spec resume_id
    | Proto.Status -> answer_status conn
    | Proto.Fetch { id } -> answer_fetch conn id
    | Proto.Watch { id } -> answer_watch conn id
    | Proto.Shutdown ->
        shutdown := true;
        ignore (safe_send conn Proto.Bye);
        Wire.close conn
  in
  let accept_ready fd =
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> None
    | _ :: _, _, _ ->
        let c, _ = Unix.accept fd in
        Some c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
  in
  while not !shutdown do
    (* one scheduling round; its select also wakes on a new client, a
       remote worker dialing in, or a pending client's request *)
    let wake =
      (lfd :: Option.to_list wfd) @ List.map (fun (c, _) -> Wire.fd c) !pending
    in
    Sched.step eng ~wake ~idle_s:0.02;
    (* new clients *)
    (match accept_ready lfd with
    | Some fd ->
        pending := (Wire.of_fd fd, Unix.gettimeofday () +. 5.0) :: !pending
    | None -> ());
    (* new remote workers *)
    (match Option.map accept_ready wfd with
    | Some (Some fd) ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Sched.attach_remote eng (Wire.of_fd fd)
    | Some None | None -> ());
    (* poll pending clients for their (single) request; one bad client
       must never take the server down *)
    let now = Unix.gettimeofday () in
    pending :=
      List.filter
        (fun (conn, deadline) ->
          match Wire.try_recv conn with
          | Some raw -> (
              (match Proto.client_of_csexp raw with
              | Ok m -> dispatch conn m
              | Error e ->
                  ignore (safe_send conn (Proto.Rejected { reason = e }));
                  Wire.close conn);
              false)
          | None ->
              if now > deadline then begin
                Wire.close conn;
                false
              end
              else true
          | exception (Wire.Closed | Wire.Corrupt _) ->
              Wire.close conn;
              false
          | exception e ->
              Printf.eprintf "ft_server: dropping client connection: %s\n%!"
                (Printexc.to_string e);
              Wire.close conn;
              false)
        !pending
  done;
  (* graceful exit: journals synced + closed (resumable), pool killed;
     anyone still watching hears the door close as EOF *)
  Sched.abort eng;
  List.iter (fun (c, _) -> Wire.close c) !pending;
  Hashtbl.iter
    (fun _ e -> List.iter (fun w -> Wire.close w.wt_conn) e.te_watchers)
    entries;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match wfd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  try Unix.unlink socket with Unix.Unix_error _ -> ()
