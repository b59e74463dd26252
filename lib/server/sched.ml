(** The multi-tenant fair-share lease scheduler.

    One engine, many campaigns: jobs are admitted from a FIFO queue
    onto a shared pool of workers (forked children {e and} remote TCP
    attachments), and the engine interleaves their fixed contiguous
    batches under leases exactly the way the single-campaign server
    did — a batch is leased to one worker with a refreshable
    wall-clock deadline ({!Watchdog.deadline}) that every frame from
    the worker pushes out; a worker that dies or goes quiet is
    SIGKILLed, its lease {e stolen} back after a jittered exponential
    backoff ({!Executor.backoff_s}); a batch whose lease keeps failing
    poisons {e its own campaign only} — the other tenants keep running
    on the same pool.

    The engine is type-erased: a job delivers trial records to its
    owner through an [jb_accept] callback (the owner keeps the typed
    outcome array — {!tenant} builds both halves), and workers rebuild
    every campaign from its wire {!Campaign.spec}.  Determinism is
    per-tenant: trials depend only on their index, each tenant's
    records are accumulated first-write-wins into its own sharded
    journal, so every tenant's outcome sequence is byte-identical to
    its own [--jobs 1] run no matter how the pool interleaves or dies.
    There is no early stop: a campaign runs to its planned total.

    Fair share: a free worker goes to the admitted tenant holding the
    fewest leases (ties broken least-recently-served), so a wide
    campaign cannot starve a narrow one. *)

type config = {
  workers : int;  (** forked worker processes to keep at strength *)
  batch : int;  (** trials per lease; fixed boundaries like the executor *)
  shards : int;  (** journal shards (batch [b] logs to [b mod shards]) *)
  heartbeat_s : float;  (** per-worker lease deadline between messages *)
  max_lease_attempts : int;
      (** lease failures tolerated per batch before {e that} campaign
          is poisoned *)
  compact_every : int;  (** records appended to a shard before compaction *)
  max_active : int;  (** campaigns scheduled concurrently; rest queue *)
  chaos_kills : int list;
      (** SIGKILL the most recent deliverer when the pool-wide
          delivered-trial count crosses each threshold (ascending) *)
  retry : Executor.config;
      (** worker-side trial retry and the lease re-assignment backoff
          share this policy *)
  metrics : Obs.t option;
}

let default_config =
  {
    workers = 2;
    batch = 16;
    shards = 4;
    heartbeat_s = 30.0;
    max_lease_attempts = 3;
    compact_every = 4096;
    max_active = 4;
    chaos_kills = [];
    retry = Executor.default_config;
    metrics = None;
  }

(** One campaign as the scheduler sees it.  [jb_accept i record] hands
    a freshly delivered trial record to the owner; [true] means the
    owner decoded and kept it (the engine then marks index [i] filled
    and journals the record verbatim).  [jb_spec] is the wire form
    workers rebuild the campaign from. *)
type job = {
  jb_id : string;
  jb_app : string;  (** display only *)
  jb_total : int;
  jb_header : Csexp.t;
  jb_journal : string option;  (** this campaign's own shard directory *)
  jb_resume : bool;
  jb_spec : Campaign.spec;
  jb_accept : int -> Csexp.t -> bool;
}

type event =
  | Progress of { completed : int; planned : int; stolen : int }
  | Finished of { completed : int; resumed : int }
  | Poisoned of { batch : int; attempts : int; cause : Infra.cause }
  | Failed of { reason : string }
      (** admission failed (journal header mismatch, ...) *)

type tenant_stats = {
  ts_id : string;
  ts_app : string;
  ts_state : string;  (** [queued], [active], [done], [poisoned], [failed] *)
  ts_completed : int;
  ts_planned : int;
  ts_leases : int;  (** batches held across the pool right now *)
  ts_steals : int;  (** leases stolen back from dead workers *)
}

(* --- internal state ----------------------------------------------------- *)

type lease = Todo | Leased of int  (** worker slot id *) | Done_
type tstate = Queued | Active | Finished_t | Poisoned_t | Failed_t

type tenant = {
  job : job;
  nbatches : int;
  filled : bool array;
  lease : lease array;
  attempts : int array;
  eligible : float array;
  mutable state : tstate;
  mutable journal : Shard.t option;
  mutable resumed : int;
  mutable open_batches : int;
  mutable completed_n : int;  (** filled count, maintained incrementally *)
  mutable prefix : int;
  mutable steals : int;
  mutable last_served : int;
}

type wkind = Fork | Remote

type wslot = {
  ws_id : int;
  ws_kind : wkind;
  mutable ws_pid : int;  (** fork child, or the pid a remote reported *)
  ws_conn : Wire.conn;
  mutable ws_assign : (string * int) option;  (** campaign id, batch *)
  ws_loaded : (string, unit) Hashtbl.t;
  ws_noload : (string, unit) Hashtbl.t;
      (** campaigns this worker failed to load; never offered again *)
  ws_dl : Watchdog.deadline;
  mutable ws_dead : bool;
}

type t = {
  cfg : config;
  spawn : (close_fds:Unix.file_descr list -> int * Wire.conn) option;
  on_event : string -> event -> unit;
  tenants : (string, tenant) Hashtbl.t;
  mutable submitted : string list;  (** submission order, reversed *)
  queue : string Queue.t;
  mutable slots : wslot list;
  mutable next_slot : int;
  mutable served : int;  (** fair-share round counter *)
  mutable kills : int list;
  mutable delivered : int;
  mutable active : int;
}

let create ?(cfg = default_config) ?spawn
    ~(on_event : string -> event -> unit) () : t =
  (* a write to a worker that just died must surface as [Wire.Closed]
     (and a stolen lease), not as a SIGPIPE that kills the owner *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    cfg;
    spawn;
    on_event;
    tenants = Hashtbl.create 8;
    submitted = [];
    queue = Queue.create ();
    slots = [];
    next_slot = 0;
    served = 0;
    kills = List.sort compare cfg.chaos_kills;
    delivered = 0;
    active = 0;
  }

let obs_count (t : t) name n =
  match t.cfg.metrics with Some m -> Obs.count m name n | None -> ()

let trial_key (r : Csexp.t) : string option =
  match r with
  | Csexp.List (Csexp.Atom "t" :: Csexp.Atom idx :: _) -> Some idx
  | _ -> None

let record_index (r : Csexp.t) : int option =
  match r with
  | Csexp.List (Csexp.Atom "t" :: Csexp.Atom idx :: _) ->
      int_of_string_opt idx
  | _ -> None

let record_is_infra (r : Csexp.t) : bool =
  match r with
  | Csexp.List (Csexp.Atom "t" :: _ :: Csexp.Atom "err" :: _) -> true
  | _ -> false

(* --- per-tenant geometry ------------------------------------------------- *)

let batch_size (t : t) = max 1 t.cfg.batch

let batch_range (t : t) (ten : tenant) b =
  let bs = batch_size t in
  (b * bs, min ten.job.jb_total ((b + 1) * bs))

let first_unfilled (t : t) (ten : tenant) b =
  let lo, hi = batch_range t ten b in
  let rec go i =
    if i >= hi then None else if ten.filled.(i) then go (i + 1) else Some i
  in
  go lo

(* the contiguous filled prefix: what a finished tenant reports *)
let advance_prefix (ten : tenant) =
  while ten.prefix < ten.job.jb_total && ten.filled.(ten.prefix) do
    ten.prefix <- ten.prefix + 1
  done

(* --- tenant lifecycle ---------------------------------------------------- *)

let close_journal (ten : tenant) =
  match ten.journal with
  | None -> ()
  | Some sh ->
      (try
         Shard.sync_all sh;
         Shard.close sh
       with Sys_error _ | Unix.Unix_error _ -> ());
      ten.journal <- None

let emit (t : t) (ten : tenant) (e : event) = t.on_event ten.job.jb_id e

let progress (t : t) (ten : tenant) =
  emit t ten
    (Progress
       {
         completed = ten.completed_n;
         planned = ten.job.jb_total;
         stolen = ten.steals;
       })

let finish (t : t) (ten : tenant) =
  close_journal ten;
  ten.state <- Finished_t;
  t.active <- t.active - 1;
  obs_count t "server/tenants-finished" 1;
  emit t ten (Finished { completed = ten.prefix; resumed = ten.resumed })

let maybe_finish (t : t) (ten : tenant) =
  if ten.state = Active && ten.open_batches = 0 then finish t ten

let poison (t : t) (ten : tenant) (b : int) (cause : Infra.cause) =
  close_journal ten;
  ten.state <- Poisoned_t;
  t.active <- t.active - 1;
  obs_count t "server/tenants-poisoned" 1;
  emit t ten (Poisoned { batch = b; attempts = ten.attempts.(b); cause })

(** Close batch [b]: mark done, persist, advance the prefix, and tell
    the owner.  Reached from [Batch_done] {e and} from the stolen-batch
    path where every record arrived before the thief ran — both must
    advance the prefix identically. *)
let close_batch (t : t) (ten : tenant) (b : int) =
  ten.lease.(b) <- Done_;
  ten.open_batches <- ten.open_batches - 1;
  (match ten.journal with
  | Some sh ->
      Shard.sync sh ~shard:b;
      if Shard.appended sh ~shard:b >= t.cfg.compact_every then begin
        ignore (Shard.compact sh ~key:trial_key ~shard:b);
        obs_count t "server/compactions" 1
      end
  | None -> ());
  advance_prefix ten;
  progress t ten;
  maybe_finish t ten

let submit (t : t) (job : job) : (unit, string) result =
  if job.jb_total < 0 then Error "negative trial total"
  else if Hashtbl.mem t.tenants job.jb_id then
    Error (Printf.sprintf "duplicate campaign id %s" job.jb_id)
  else begin
    let total = job.jb_total in
    let bs = batch_size t in
    let nbatches = (total + bs - 1) / bs in
    let ten =
      {
        job;
        nbatches;
        filled = Array.make total false;
        lease = Array.make nbatches Todo;
        attempts = Array.make nbatches 0;
        eligible = Array.make nbatches 0.0;
        state = Queued;
        journal = None;
        resumed = 0;
        open_batches = 0;
        completed_n = 0;
        prefix = 0;
        steals = 0;
        last_served = 0;
      }
    in
    Hashtbl.replace t.tenants job.jb_id ten;
    t.submitted <- job.jb_id :: t.submitted;
    Queue.push job.jb_id t.queue;
    obs_count t "server/tenants-submitted" 1;
    Ok ()
  end

(** The typed owner of one campaign: the job whose [jb_accept] decodes
    records into a private outcome array, and the finished-prefix
    extraction that reads it back once [Finished { completed }]
    fires. *)
let tenant ~(id : string) ?(journal : string option) ?(resume = false)
    (spec : Campaign.spec) (ex : 'a Executor.spec) :
    job * (int -> 'a Executor.outcome array) =
  let outcomes = Array.make ex.Executor.total None in
  let accept i r =
    match Executor.parse_trial ex.Executor.decode r with
    | Some (j, o) when j = i ->
        outcomes.(i) <- Some o;
        true
    | Some _ | None -> false
  in
  ( {
      jb_id = id;
      jb_app = spec.Campaign.sp_app;
      jb_total = ex.Executor.total;
      jb_header = Executor.header_record ex;
      jb_journal = journal;
      jb_resume = resume;
      jb_spec = spec;
      jb_accept = accept;
    },
    fun completed -> Array.init completed (fun i -> Option.get outcomes.(i))
  )

(** Admission: open (or heal-and-resume) the tenant's own journal,
    replay surviving records through the owner's [jb_accept], and
    schedule whatever is still open.  A campaign that resumes complete
    finishes here without ever touching the pool. *)
let admit (t : t) (ten : tenant) =
  match
    let total = ten.job.jb_total in
    (match ten.job.jb_journal with
    | None -> ()
    | Some dir ->
        if ten.job.jb_resume && Sys.file_exists dir then begin
          let sh, records =
            Shard.open_resume ~dir ~shards:t.cfg.shards
              ~header:ten.job.jb_header
          in
          ten.journal <- Some sh;
          List.iter
            (fun r ->
              match record_index r with
              | Some i
                when i >= 0 && i < total && (not ten.filled.(i))
                     && ten.job.jb_accept i r ->
                  ten.filled.(i) <- true;
                  ten.completed_n <- ten.completed_n + 1;
                  ten.resumed <- ten.resumed + 1
              | Some _ | None -> ())
            records
        end
        else
          ten.journal <-
            Some
              (Shard.create ~dir ~shards:t.cfg.shards
                 ~header:ten.job.jb_header));
    for b = 0 to ten.nbatches - 1 do
      match first_unfilled t ten b with
      | None -> ten.lease.(b) <- Done_
      | Some _ -> ten.open_batches <- ten.open_batches + 1
    done;
    advance_prefix ten
  with
  | () ->
      ten.state <- Active;
      t.active <- t.active + 1;
      obs_count t "server/tenants-admitted" 1;
      progress t ten;
      maybe_finish t ten
  | exception e ->
      close_journal ten;
      ten.state <- Failed_t;
      emit t ten (Failed { reason = Printexc.to_string e })

(* --- the worker pool ----------------------------------------------------- *)

let sigkill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap ?(force = false) pid =
  if force then sigkill pid;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let live_slots (t : t) = List.filter (fun s -> not s.ws_dead) t.slots

let slot_fds (t : t) =
  List.map (fun s -> Wire.fd s.ws_conn) (live_slots t)

let add_slot (t : t) (kind : wkind) (pid : int) (conn : Wire.conn) : wslot =
  let s =
    {
      ws_id = t.next_slot;
      ws_kind = kind;
      ws_pid = pid;
      ws_conn = conn;
      ws_assign = None;
      ws_loaded = Hashtbl.create 4;
      ws_noload = Hashtbl.create 4;
      ws_dl = Watchdog.arm ~seconds:t.cfg.heartbeat_s;
      ws_dead = false;
    }
  in
  t.next_slot <- t.next_slot + 1;
  t.slots <- t.slots @ [ s ];
  s

let fork_slot (t : t) =
  match t.spawn with
  | None -> ()
  | Some spawn ->
      (* every fd the engine holds that this child must not inherit:
         sibling workers' sockets (the caller's closure adds its own —
         a listening socket, client connections) *)
      let pid, conn = spawn ~close_fds:(slot_fds t) in
      obs_count t "server/workers-forked" 1;
      ignore (add_slot t Fork pid conn)

let attach_remote (t : t) (conn : Wire.conn) : unit =
  obs_count t "server/workers-attached" 1;
  ignore (add_slot t Remote 0 conn)

(** Take worker [s]'s lease on batch [b] of [cid] back: count the
    attempt and the steal, and make the batch eligible again after the
    jittered backoff — or poison the batch's {e own} campaign with
    [cause] once its attempts run out. *)
let steal (t : t) (s : wslot) ((cid, b) : string * int) (cause : Infra.cause) =
  s.ws_assign <- None;
  match Hashtbl.find_opt t.tenants cid with
  | Some ten when ten.state = Active && ten.lease.(b) = Leased s.ws_id ->
      ten.attempts.(b) <- ten.attempts.(b) + 1;
      ten.steals <- ten.steals + 1;
      obs_count t "server/leases-stolen" 1;
      ten.lease.(b) <- Todo;
      ten.eligible.(b) <-
        Unix.gettimeofday ()
        +. Executor.backoff_s t.cfg.retry b (ten.attempts.(b) - 1);
      if ten.attempts.(b) > t.cfg.max_lease_attempts then
        poison t ten b cause
  | _ -> ()

(** A dead or stalled worker: kill, reap, steal its lease back, drop
    the slot.  Every other tenant — and the replacement worker — is
    untouched. *)
let worker_down (t : t) (s : wslot) (cause : Infra.cause) =
  if not s.ws_dead then begin
    s.ws_dead <- true;
    t.slots <- List.filter (fun s' -> s'.ws_id <> s.ws_id) t.slots;
    Wire.close s.ws_conn;
    (match s.ws_kind with
    | Fork -> reap ~force:true s.ws_pid
    | Remote -> ());
    Option.iter (fun lease -> steal t s lease cause) s.ws_assign
  end

(** A worker answered that it cannot serve this campaign: take the
    batch back immediately (the worker itself is healthy) and never
    offer it that campaign again.  Exhausting the attempts this way
    poisons the campaign with a [Load_failed] cause — the campaign is
    unbuildable, not the pool broken. *)
let load_failed (t : t) (s : wslot) (cid : string) (reason : string) =
  Hashtbl.remove s.ws_loaded cid;
  Hashtbl.replace s.ws_noload cid ();
  match s.ws_assign with
  | Some ((c, _) as lease) when c = cid ->
      steal t s lease (Infra.Load_failed { cid; reason })
  | _ -> ()

(* --- message handling ---------------------------------------------------- *)

(** Accept one worker message; [false] = stop draining this worker
    (it was just chaos-killed). *)
let handle (t : t) (s : wslot) (msg : Csexp.t) : bool =
  Watchdog.refresh s.ws_dl;
  match Proto.from_worker_of_csexp msg with
  | Error _ -> true
  | Ok (Proto.Ready { pid }) ->
      if s.ws_kind = Remote then s.ws_pid <- pid;
      true
  | Ok (Proto.Loaded { cid }) ->
      Hashtbl.replace s.ws_loaded cid ();
      true
  | Ok (Proto.Load_failed { cid; reason }) ->
      load_failed t s cid reason;
      true
  | Ok (Proto.Trial { cid; record }) -> (
      match Hashtbl.find_opt t.tenants cid with
      | Some ten when ten.state = Active -> (
          match record_index record with
          | Some i
            when i >= 0 && i < ten.job.jb_total && (not ten.filled.(i))
                 && ten.job.jb_accept i record ->
              ten.filled.(i) <- true;
              ten.completed_n <- ten.completed_n + 1;
              if record_is_infra record then
                obs_count t "server/infra-errors" 1;
              (match ten.journal with
              | Some sh ->
                  Shard.append sh ~shard:(i / batch_size t) record
              | None -> ());
              t.delivered <- t.delivered + 1;
              (match t.kills with
              | k :: rest when t.delivered >= k ->
                  t.kills <- rest;
                  obs_count t "server/chaos-kills" 1;
                  (match s.ws_kind with
                  | Fork ->
                      (* EOF will surface next round and steal the lease *)
                      sigkill s.ws_pid
                  | Remote ->
                      (* no pid to kill from here: drop the connection,
                         which is exactly what a vanished machine looks
                         like *)
                      worker_down t s
                        (Infra.Worker_lost
                           { pid = s.ws_pid; batch = Option.map snd s.ws_assign }));
                  false
              | _ -> true)
          | Some _ -> true  (* duplicate from a stolen batch: first write wins *)
          | None -> true)
      | _ -> true  (* tenant finished or poisoned: late records drop *))
  | Ok (Proto.Batch_done { cid; batch = b; retries }) -> (
      obs_count t "server/retries" retries;
      (match s.ws_assign with
      | Some (c, bb) when c = cid && bb = b -> s.ws_assign <- None
      | _ -> ());
      match Hashtbl.find_opt t.tenants cid with
      | Some ten
        when ten.state = Active && b >= 0 && b < ten.nbatches
             && ten.lease.(b) = Leased s.ws_id ->
          close_batch t ten b;
          true
      | _ -> true)

(* --- assignment ---------------------------------------------------------- *)

let first_ready (ten : tenant) (now : float) : int option =
  let rec go b =
    if b >= ten.nbatches then None
    else if ten.lease.(b) = Todo && ten.eligible.(b) <= now then Some b
    else go (b + 1)
  in
  go 0

(** Give every free worker a batch.  The tenant holding the fewest
    leases wins the worker (ties broken least-recently-served, then by
    id — deterministic), which is what keeps one wide campaign from
    starving the rest of the queue. *)
let assign (t : t) =
  let leases_held : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match s.ws_assign with
      | Some (cid, _) ->
          Hashtbl.replace leases_held cid
            (1 + Option.value ~default:0 (Hashtbl.find_opt leases_held cid))
      | None -> ())
    (live_slots t);
  let held cid = Option.value ~default:0 (Hashtbl.find_opt leases_held cid) in
  List.iter
    (fun s ->
      if (not s.ws_dead) && s.ws_assign = None then begin
        let rec try_assign () =
          let now = Unix.gettimeofday () in
          let best =
            Hashtbl.fold
              (fun cid ten acc ->
                if
                  ten.state = Active && ten.open_batches > 0
                  && not (Hashtbl.mem s.ws_noload cid)
                  && first_ready ten now <> None
                then
                  let k = (held cid, ten.last_served, cid) in
                  match acc with
                  | Some (k', _) when compare k' k <= 0 -> acc
                  | _ -> Some (k, ten)
                else acc)
              t.tenants None
          in
          match best with
          | None -> ()
          | Some (_, ten) -> (
              let cid = ten.job.jb_id in
              match first_ready ten now with
              | None -> ()
              | Some b -> (
                  match first_unfilled t ten b with
                  | None ->
                      (* a stolen batch whose records all arrived before
                         the thief ran: nothing left to compute — but
                         the boundary still closes here, so the prefix
                         must advance exactly as it would on
                         [Batch_done] *)
                      close_batch t ten b;
                      try_assign ()
                  | Some lo -> (
                      let _, hi = batch_range t ten b in
                      try
                        if not (Hashtbl.mem s.ws_loaded cid) then begin
                          Wire.send s.ws_conn
                            (Proto.to_worker_to_csexp
                               (Proto.Load { cid; spec = ten.job.jb_spec }));
                          (* optimistic: a [Load_failed] reply takes it
                             back out *)
                          Hashtbl.replace s.ws_loaded cid ()
                        end;
                        Wire.send s.ws_conn
                          (Proto.to_worker_to_csexp
                             (Proto.Lease { cid; batch = b; lo; hi }));
                        ten.lease.(b) <- Leased s.ws_id;
                        s.ws_assign <- Some (cid, b);
                        t.served <- t.served + 1;
                        ten.last_served <- t.served;
                        Hashtbl.replace leases_held cid (held cid + 1);
                        Watchdog.refresh s.ws_dl
                      with Wire.Closed ->
                        worker_down t s
                          (Infra.Worker_lost { pid = s.ws_pid; batch = None })
                      )))
        in
        try_assign ()
      end)
    (live_slots t)

(* --- the step loop ------------------------------------------------------- *)

let work_remains (t : t) =
  (not (Queue.is_empty t.queue))
  || Hashtbl.fold
       (fun _ ten acc -> acc || (ten.state = Active && ten.open_batches > 0))
       t.tenants false

let fork_count (t : t) =
  List.length (List.filter (fun s -> s.ws_kind = Fork) (live_slots t))

let step (t : t) ~(idle_s : float) : unit =
  (* admission: pop the queue while there is room on the pool *)
  let rec admit_loop () =
    if t.active < max 1 t.cfg.max_active && not (Queue.is_empty t.queue) then begin
      let cid = Queue.pop t.queue in
      (match Hashtbl.find_opt t.tenants cid with
      | Some ten when ten.state = Queued -> admit t ten
      | _ -> ());
      admit_loop ()
    end
  in
  admit_loop ();
  (* keep the forked pool at strength while work remains *)
  if work_remains t then
    while fork_count t < t.cfg.workers && t.spawn <> None do
      fork_slot t
    done;
  assign t;
  (* wait for worker traffic; select just bounds the idle sleep —
     every live worker is drained below regardless *)
  (match slot_fds t with
  | [] -> if idle_s > 0.0 then Unix.sleepf idle_s
  | fds -> (
      match Unix.select fds [] [] idle_s with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
  List.iter
    (fun s ->
      if not s.ws_dead then
        try
          let continue_ = ref true in
          let rec drain_msgs () =
            if !continue_ then
              match Wire.try_recv s.ws_conn with
              | Some msg ->
                  continue_ := handle t s msg;
                  drain_msgs ()
              | None -> ()
          in
          drain_msgs ()
        with
        | Wire.Closed ->
            worker_down t s
              (Infra.Worker_lost
                 { pid = s.ws_pid; batch = Option.map snd s.ws_assign })
        | Wire.Corrupt m -> worker_down t s (Infra.Wire_fault { message = m }))
    (live_slots t);
  (* heartbeat deadlines: a leased worker that went quiet *)
  List.iter
    (fun s ->
      if (not s.ws_dead) && s.ws_assign <> None
         && Watchdog.deadline_expired s.ws_dl
      then begin
        obs_count t "server/heartbeats-missed" 1;
        worker_down t s
          (Infra.Lease_expired
             {
               batch = Option.value ~default:(-1) (Option.map snd s.ws_assign);
               pid = s.ws_pid;
               heartbeat_s = t.cfg.heartbeat_s;
             })
      end)
    (live_slots t)

let busy (t : t) =
  Hashtbl.fold
    (fun _ ten acc ->
      acc || ten.state = Queued || ten.state = Active)
    t.tenants false

let drain (t : t) : unit =
  while busy t do
    step t ~idle_s:0.05
  done

let shutdown_workers (t : t) : unit =
  List.iter
    (fun s ->
      (try Wire.send s.ws_conn (Proto.to_worker_to_csexp Proto.Quit)
       with Wire.Closed | Unix.Unix_error _ -> ());
      Wire.close s.ws_conn;
      match s.ws_kind with
      | Remote -> ()
      | Fork ->
          (* grace period, then force *)
          let rec wait k =
            match Unix.waitpid [ Unix.WNOHANG ] s.ws_pid with
            | 0, _ ->
                if k = 0 then reap ~force:true s.ws_pid
                else begin
                  Unix.sleepf 0.02;
                  wait (k - 1)
                end
            | _ -> ()
            | exception Unix.Unix_error _ -> ()
          in
          wait 100)
    t.slots;
  t.slots <- []

(** Emergency stop: close every active tenant's journal (synced) and
    kill the pool — the cleanup path when the caller's loop raises. *)
let abort (t : t) : unit =
  Hashtbl.iter
    (fun _ ten -> if ten.state = Active then close_journal ten)
    t.tenants;
  shutdown_workers t

(* --- introspection ------------------------------------------------------- *)

let state_name = function
  | Queued -> "queued"
  | Active -> "active"
  | Finished_t -> "done"
  | Poisoned_t -> "poisoned"
  | Failed_t -> "failed"

let stats (t : t) : tenant_stats list =
  let leases_held : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match s.ws_assign with
      | Some (cid, _) ->
          Hashtbl.replace leases_held cid
            (1 + Option.value ~default:0 (Hashtbl.find_opt leases_held cid))
      | None -> ())
    (live_slots t);
  List.rev_map
    (fun cid ->
      let ten = Hashtbl.find t.tenants cid in
      {
        ts_id = cid;
        ts_app = ten.job.jb_app;
        ts_state = state_name ten.state;
        ts_completed = ten.completed_n;
        ts_planned = ten.job.jb_total;
        ts_leases =
          Option.value ~default:0 (Hashtbl.find_opt leases_held cid);
        ts_steals = ten.steals;
      })
    t.submitted

let queue_depth (t : t) = Queue.length t.queue
let active_count (t : t) = t.active
let worker_count (t : t) = List.length (live_slots t)
