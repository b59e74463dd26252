(** The worker side of the campaign protocol: a forked child or a
    remote TCP process serving a multi-tenant pool.  Campaigns come
    only as wire specs ([Load]), built into runners by the worker's
    {!loader} — in production {!plan_loader}, which rebuilds them
    through {!Plan} (cache warm).  Each leased trial runs through
    {!Executor.attempt} and streams its trial record after — so a
    SIGKILL or a vanished machine loses at most the in-flight trial,
    and the records themselves keep the lease deadline fresh. *)

type runner = int -> Csexp.t
(** A loaded campaign: index -> journal-ready trial record. *)

type loader = Executor.config -> Campaign.spec -> (runner, string) result
(** Builds a runner from a wire submission, under the worker's
    (metrics-instrumented) retry config. *)

val runner_of_exec_spec : retry:Executor.config -> 'a Executor.spec -> runner
(** Wrap a typed trial kernel: [Executor.attempt] + record encoding. *)

val plan_loader : ?cache_dir:string -> loader
(** The spec-driven loader every production worker uses:
    {!Plan.spec_of_submission} + {!runner_of_exec_spec}. *)

val run :
  ?recv_timeout_s:float ->
  ?stall_batch_done_s:float ->
  load:loader ->
  conn:Wire.conn ->
  retry:Executor.config ->
  unit ->
  unit
(** Serve leases until [Quit], the server hangs up, or no command
    arrives within [recv_timeout_s] (default 60 s — a worker must never
    outlive its server).  Every campaign is built by [load] from its
    wire spec; a lease for a campaign the worker cannot serve is
    answered with [Load_failed], never silently dropped.
    [stall_batch_done_s] (default 0) is a chaos hook that sleeps
    between a batch's last trial record and its [Batch_done],
    deterministically widening the batch-boundary crash window. *)

val spawn :
  ?recv_timeout_s:float ->
  ?stall_batch_done_s:float ->
  ?close_fds:Unix.file_descr list ->
  load:loader ->
  retry:Executor.config ->
  unit ->
  int * Wire.conn
(** Fork one worker; returns [(pid, server_end)].  The child exits via
    [Unix._exit] and never returns to the caller's code.  [close_fds]
    are parent-held descriptors (sibling workers' sockets, a listening
    socket) closed in the child immediately after the fork, so a worker
    never props open connections that belong to the server. *)

val parse_addr : string -> (Unix.sockaddr, string) result
(** [HOST:PORT] (empty host = 127.0.0.1; names resolve). *)

val connect :
  ?retry:Executor.config -> addr:string -> unit -> (Wire.conn, string) result
(** TCP-connect to a server's worker port, attempts bounded by the
    executor's jittered-backoff policy. *)

val run_remote :
  ?recv_timeout_s:float ->
  ?retry:Executor.config ->
  ?cache_dir:string ->
  addr:string ->
  unit ->
  (unit, string) result
(** [ft worker --connect HOST:PORT]: attach over TCP and serve leases
    until the server goes away. *)

val spawn_remote :
  ?recv_timeout_s:float ->
  ?retry:Executor.config ->
  ?cache_dir:string ->
  addr:string ->
  unit ->
  int
(** Fork a process that attaches to [addr] as a remote worker (the
    chaos harness's mixed fork/TCP pool); returns the child pid —
    SIGKILL it to simulate a vanished remote. *)
