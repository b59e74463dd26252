(** The multi-tenant fair-share lease scheduler: one worker pool
    (forked children and remote TCP attachments), many concurrently
    interleaved campaigns, per-campaign fault isolation.  Campaigns
    enter only as wire specs, which workers rebuild.  Type-erased:
    owners receive their trial records through a callback and keep the
    typed state ({!tenant} builds both); each tenant's record sequence
    is first-write-wins in index order, so its counts are
    byte-identical to its own [--jobs 1] run regardless of
    interleaving or worker deaths.  There is no early stop: a served
    campaign runs to its planned total.  A campaign that finishes, is
    poisoned or fails leaves the pool: its job and per-trial state are
    dropped (its {!stats} row stays) and every worker that loaded it
    gets a [Forget]. *)

type config = {
  workers : int;  (** forked worker processes to keep at strength *)
  batch : int;
      (** trials per lease; fixed boundaries like the executor, whose
          default (64) it shares *)
  shards : int;  (** journal shards per tenant *)
  heartbeat_s : float;  (** per-worker lease deadline between messages *)
  max_lease_attempts : int;
      (** lease failures tolerated per batch before {e that} campaign
          is poisoned *)
  compact_every : int;
  max_active : int;  (** campaigns scheduled concurrently; rest queue *)
  chaos_kills : int list;
      (** SIGKILL the most recent deliverer when the pool-wide
          delivered count crosses each threshold *)
  retry : Executor.config;
  metrics : Obs.t option;
}

val default_config : config

type job = {
  jb_id : string;
  jb_app : string;  (** display only *)
  jb_total : int;
  jb_header : Csexp.t;  (** journal header ({!Executor.header_record}) *)
  jb_journal : string option;  (** this campaign's own shard directory *)
  jb_resume : bool;
  jb_spec : Campaign.spec;  (** wire form workers rebuild the campaign from *)
  jb_accept : int -> Csexp.t -> bool;
      (** deliver one fresh record to the owner; [true] = decoded and
          kept (the engine marks the index filled and journals it) *)
}

val tenant :
  id:string ->
  ?journal:string ->
  ?resume:bool ->
  Campaign.spec ->
  'a Executor.spec ->
  job * (int -> 'a Executor.outcome array)
(** The one way to own a campaign: a job whose [jb_accept] decodes
    [ex]'s records into a private outcome array ([jb_app] = the spec's
    app, [jb_header] = [ex]'s journal header, [resume] default
    [false]), and the function that returns the first [completed]
    outcomes once [Finished { completed }] fires.  [ex] must be the
    executor spec workers build from [spec]. *)

type event =
  | Progress of { completed : int; planned : int; stolen : int }
  | Finished of { completed : int; resumed : int }
      (** every batch closed: [completed] = the planned total *)
  | Poisoned of { batch : int; attempts : int; cause : Infra.cause }
  | Failed of { reason : string }  (** admission failed *)

type tenant_stats = {
  ts_id : string;
  ts_app : string;
  ts_state : string;  (** [queued], [active], [done], [poisoned], [failed] *)
  ts_completed : int;
  ts_planned : int;
  ts_leases : int;
  ts_steals : int;
}

type t

val create :
  ?cfg:config ->
  ?spawn:(close_fds:Unix.file_descr list -> int * Wire.conn) ->
  on_event:(string -> event -> unit) ->
  unit ->
  t
(** [spawn] forks one worker (the engine passes the sibling sockets it
    must close; add your own listener/client fds in the closure); when
    absent the pool is remote-only.  [on_event] receives every
    tenant's lifecycle, keyed by campaign id.  Sets SIGPIPE to ignored
    for the process, so a dead worker's socket raises instead. *)

val submit : t -> job -> (unit, string) result
(** Enqueue a campaign; admitted (journal opened/resumed) when a slot
    under [max_active] frees up.  Fails on duplicate id. *)

val attach_remote : t -> Wire.conn -> unit
(** Add a remote TCP worker to the pool.  A vanished remote is handled
    exactly like a SIGKILLed fork: lease stolen, pool degrades. *)

val step : ?wake:Unix.file_descr list -> t -> idle_s:float -> unit
(** One scheduling round: admit, keep the forked pool at strength,
    assign leases fairly, wait up to [idle_s] for traffic from a worker
    or on one of the caller's [wake] descriptors (a listening socket,
    pending clients), drain worker messages, enforce heartbeat
    deadlines.  The caller reads its own [wake] descriptors. *)

val drain : t -> unit
(** [step] until no tenant is queued or active. *)

val busy : t -> bool
(** A campaign is queued or active. *)

val shutdown_workers : t -> unit
val abort : t -> unit
(** Close active tenants' journals (synced) and kill the pool: the
    cleanup path when the caller's loop raises. *)

val stats : t -> tenant_stats list
(** Per-tenant rows in submission order. *)

val queue_depth : t -> int
val active_count : t -> int
val worker_count : t -> int
