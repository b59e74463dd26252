(** The campaign server: a crash-tolerant, {e multi-tenant} scheduler
    for deterministic trial campaigns.  The fair-share lease engine
    lives in {!Sched}; this module is its one front door, {!serve}: the
    long-running socket service, wire-submitted campaigns queued and
    interleaved across one shared pool of forked and remote TCP
    workers, each under a deterministic campaign id with its own
    journal directory and a persisted, fetchable verdict.  Every
    campaign's counts stay byte-identical to its own [--jobs 1] run no
    matter how tenants interleave or how many workers die. *)

type config = {
  workers : int;  (** forked worker processes *)
  batch : int;  (** trials per lease; fixed boundaries like the executor *)
  shards : int;  (** journal shards (batch [b] logs to [b mod shards]) *)
  journal_dir : string option;
      (** the root: each campaign journals under [<root>/<campaign-id>]
          and finished verdicts persist under [<root>/results] *)
  heartbeat_s : float;  (** per-worker lease deadline between messages *)
  max_lease_attempts : int;
      (** lease failures tolerated per batch before the campaign is
          poisoned *)
  compact_every : int;  (** records appended to a shard before compaction *)
  max_active : int;
      (** campaigns scheduled concurrently; the rest queue *)
  retry : Executor.config;
      (** worker-side trial retry and the lease re-assignment backoff
          share this policy *)
  metrics : Obs.t option;
      (** scheduler metrics: [server/workers-forked],
          [server/workers-attached], [server/leases-stolen],
          [server/heartbeats-missed], [server/retries],
          [server/compactions], [server/chaos-kills],
          [server/infra-errors], [server/tenants-*] *)
}

val default_config : config
(** 2 workers, batch 64 ([Executor.default_config]'s), 4 shards, no
    journal, 30 s heartbeats, 3 lease attempts, compaction every 4096
    records, 4 concurrent campaigns. *)

val campaign_id : int -> string -> string
(** Deterministic campaign id: admission ordinal + tag hash
    ([c0007-1a2b3c4d5e]).  Distinct submissions of the same spec get
    distinct ids — and therefore distinct journal directories. *)

val serve :
  ?cfg:config ->
  ?cache_dir:string ->
  ?worker_bind:string ->
  ?worker_port_file:string ->
  socket:string ->
  unit ->
  unit
(** Listen on a Unix-domain [socket] and serve {!Proto.client_msg}
    requests until a shutdown.  Submissions are {e queued}, up to
    [cfg.max_active] running interleaved on the shared pool; each
    campaign journals under [<journal_dir>/<campaign-id>] with resume
    forced on, and its final verdict persists under
    [<journal_dir>/results/<campaign-id>] where [Fetch]/[Watch] can
    find it after the submitting connection is gone.  [Submit] with a
    [resume_id] re-attaches to a live campaign or resumes an
    interrupted one's journal under its old id.

    [worker_bind] ([HOST:PORT], port [0] for ephemeral) additionally
    listens for remote TCP workers ([ft worker --connect]); the bound
    port is written to [worker_port_file] when given.  A vanished
    remote worker is handled exactly like a SIGKILLed fork: its lease
    is stolen and the pool degrades gracefully. *)
