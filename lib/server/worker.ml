(** The worker side of the campaign protocol.

    A worker — a forked child of the server or a remote process
    attached over TCP — serves a {e multi-tenant} pool: it holds a
    table of loaded campaigns and runs leases for any of them.  A
    campaign arrives as a [Load] carrying the ~hundred-byte
    {!Campaign.spec}; the worker rebuilds the trial kernel through
    {!Plan.spec_of_submission} (content-addressed cache warm), so a
    forked and a remote worker compute byte-identical records for the
    same index.  Each leased trial runs through {!Executor.attempt}
    (the {e same} bounded-jittered-retry policy the in-process executor
    uses, so a raising trial produces the same [Infra_error] record
    either way), streaming a trial record after every trial.  Those
    records are also the worker's proof of liveness: the scheduler
    pushes the lease deadline out on every frame it receives.

    The streaming granularity is the crash-tolerance contract: when the
    server SIGKILLs a stalled worker, the kernel OOM-kills one, or a
    remote worker's machine vanishes, every trial already streamed is
    safe in the server's journal and only the in-flight trial is re-run
    by whoever steals the lease. *)

(** A campaign the worker can serve: index -> journal-ready trial
    record.  Builders receive the worker's (metrics-instrumented)
    retry config so batch-level retry counts aggregate correctly. *)
type runner = int -> Csexp.t

type loader = Executor.config -> Campaign.spec -> (runner, string) result

let runner_of_exec_spec ~(retry : Executor.config)
    (spec : 'a Executor.spec) : runner =
 fun i ->
  Executor.trial_record spec.Executor.encode i (Executor.attempt retry spec i)

(** The spec-driven loader every production worker uses: resolve + bake
    the submission's app (plan-cache warm) and wrap its trial kernel. *)
let plan_loader ?(cache_dir : string option) : loader =
 fun retry spec ->
  Result.map
    (runner_of_exec_spec ~retry)
    (Plan.spec_of_submission ?cache_dir spec)

(** Serve leases until [Quit] or the server hangs up.  [recv_timeout_s]
    bounds how long an idle worker waits for its next command before
    concluding the server is gone (a worker must never outlive its
    server as an orphan burning CPU).

    Campaigns arrive only as wire specs and are built by [load]; the
    scheduler's [Forget] drops one once it is over.  A [Lease] for a
    campaign the worker has not loaded is answered with [Load_failed]
    — never silently dropped — so the scheduler steals the batch
    back.

    [stall_batch_done_s] is a chaos hook (like {!Wire.set_inject}): it
    widens the otherwise microsecond window between a batch's last
    trial record and its [Batch_done], the exact window in which a
    crash orphans a fully-delivered lease — the server must steal it
    and close the batch without recomputing anything. *)
let run ?(recv_timeout_s = 60.0) ?(stall_batch_done_s = 0.0)
    ~(load : loader) ~(conn : Wire.conn) ~(retry : Executor.config) () :
    unit =
  let retries = Obs.create () in
  let retry = { retry with Executor.metrics = Some retries } in
  let last_retries = ref 0 in
  let loaded : (string, runner) Hashtbl.t = Hashtbl.create 8 in
  let send m = Wire.send conn (Proto.from_worker_to_csexp m) in
  send (Proto.Ready { pid = Unix.getpid () });
  let load_campaign cid spec =
    match Hashtbl.find_opt loaded cid with
    | Some _ -> Ok ()
    | None ->
        Result.map (fun r -> Hashtbl.replace loaded cid r) (load retry spec)
  in
  let rec loop () =
    match
      Proto.to_worker_of_csexp (Wire.recv conn ~timeout_s:recv_timeout_s)
    with
    | Error _ -> loop ()  (* not for us; a dead server shows up as Closed *)
    | Ok Proto.Quit -> ()
    | Ok (Proto.Load { cid; spec }) ->
        (match load_campaign cid spec with
        | Ok () -> send (Proto.Loaded { cid })
        | Error reason -> send (Proto.Load_failed { cid; reason }));
        loop ()
    | Ok (Proto.Forget { cid }) ->
        Hashtbl.remove loaded cid;
        loop ()
    | Ok (Proto.Lease { cid; batch; lo; hi }) ->
        (match Hashtbl.find_opt loaded cid with
        | None ->
            send
              (Proto.Load_failed { cid; reason = "campaign is not loaded" })
        | Some runner ->
            for i = lo to hi - 1 do
              send (Proto.Trial { cid; record = runner i })
            done;
            if stall_batch_done_s > 0.0 then Unix.sleepf stall_batch_done_s;
            let total =
              Option.value ~default:0
                (Obs.counter_value retries "executor/retries")
            in
            let fresh = total - !last_retries in
            last_retries := total;
            send (Proto.Batch_done { cid; batch; retries = fresh }));
        loop ()
  in
  try loop () with Wire.Closed | Wire.Timeout _ -> ()

(** Fork one worker running [run]; returns the child pid and the
    server's end of the socketpair.  The child never returns: it exits
    through [Unix._exit] so no parent state (buffered channels, atexit
    handlers, the test runner) replays in the child.

    [close_fds] are descriptors the parent holds that the child must
    not inherit — other workers' server-end sockets, a listening
    socket.  A fork copies them all; left open in the child they keep a
    crashed server's socket path and its peers' connections alive, so
    siblings would only notice a dead server via the recv timeout
    instead of an immediate EOF. *)
let spawn ?recv_timeout_s ?stall_batch_done_s
    ?(close_fds : Unix.file_descr list = []) ~(load : loader)
    ~(retry : Executor.config) () : int * Wire.conn =
  flush stdout;
  flush stderr;
  let server_end, worker_end = Wire.pair () in
  match Unix.fork () with
  | 0 ->
      Wire.close server_end;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        close_fds;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let code =
        match
          run ?recv_timeout_s ?stall_batch_done_s ~load ~conn:worker_end
            ~retry ()
        with
        | () -> 0
        | exception _ -> 125
      in
      Unix._exit code
  | pid ->
      Wire.close worker_end;
      (pid, server_end)

(* --- remote (TCP) workers ------------------------------------------------ *)

let parse_addr (addr : string) : (Unix.sockaddr, string) result =
  match String.rindex_opt addr ':' with
  | None -> Error (Printf.sprintf "bad address %S (expected HOST:PORT)" addr)
  | Some i -> (
      let host = String.sub addr 0 i in
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt port with
      | None -> Error (Printf.sprintf "bad port %S in %S" port addr)
      | Some port -> (
          let host = if host = "" then "127.0.0.1" else host in
          match Unix.inet_addr_of_string host with
          | ip -> Ok (Unix.ADDR_INET (ip, port))
          | exception Failure _ -> (
              match Unix.gethostbyname host with
              | { Unix.h_addr_list = [||]; _ } ->
                  Error (Printf.sprintf "cannot resolve host %S" host)
              | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))
              | exception Not_found ->
                  Error (Printf.sprintf "cannot resolve host %S" host))))

(** Connect to a server's worker port, with the executor's
    jittered-backoff policy bounding the attempts — a worker started a
    moment before its server (or re-attaching across a server restart)
    retries instead of dying. *)
let connect ?(retry = Executor.default_config) ~(addr : string) () :
    (Wire.conn, string) result =
  match parse_addr addr with
  | Error e -> Error e
  | Ok sockaddr ->
      let attempts = max 1 retry.Executor.max_retries + 1 in
      let rec go k last_err =
        if k >= attempts then
          Error
            (Printf.sprintf
               "cannot attach to campaign server at %s after %d attempts: %s"
               addr attempts last_err)
        else begin
          if k > 0 then Unix.sleepf (Executor.backoff_s retry 0 (k - 1));
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          match
            Unix.connect fd sockaddr;
            Unix.setsockopt fd Unix.TCP_NODELAY true
          with
          | () -> Ok (Wire.of_fd fd)
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              go (k + 1) (Unix.error_message e)
        end
      in
      go 0 "never tried"

(** Attach to a server over TCP and serve leases until the server goes
    away: [ft worker --connect HOST:PORT].  Campaigns are rebuilt from
    their wire specs through [cache_dir]. *)
let run_remote ?recv_timeout_s ?retry
    ?(cache_dir : string option) ~(addr : string) () : (unit, string) result
    =
  let retry_cfg = Option.value ~default:Executor.default_config retry in
  match connect ~retry:retry_cfg ~addr () with
  | Error e -> Error e
  | Ok conn ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Fun.protect
        ~finally:(fun () -> Wire.close conn)
        (fun () ->
          run ?recv_timeout_s ~load:(plan_loader ?cache_dir) ~conn
            ~retry:retry_cfg ();
          Ok ())

(** Fork a process that attaches to [addr] as a remote worker — the
    chaos harness's way of standing up a mixed fork/TCP pool.  Returns
    the child pid (SIGKILL it to simulate a vanished remote). *)
let spawn_remote ?recv_timeout_s ?retry ?cache_dir
    ~(addr : string) () : int =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        match run_remote ?recv_timeout_s ?retry ?cache_dir ~addr () with
        | Ok () -> 0
        | Error _ -> 124
        | exception _ -> 125
      in
      Unix._exit code
  | pid -> pid
