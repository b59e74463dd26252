(* The campaign server: wire framing (dup suppression, checksum +
   resend, deadlines), the content-addressed cache, the infra
   taxonomy, protocol codecs, sharded journals, and the core
   crash-tolerance contract — a campaign whose workers are SIGKILLed
   mid-flight produces counts byte-identical to --jobs 1. *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ft-server-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

(* --- wire ---------------------------------------------------------------- *)

let msg s = Csexp.List [ Csexp.Atom "m"; Csexp.Atom s ]

let test_wire_roundtrip () =
  let a, b = Wire.pair () in
  let sent = List.init 20 (fun i -> msg (string_of_int i)) in
  List.iter (Wire.send a) sent;
  let got = List.map (fun _ -> Wire.recv b ~timeout_s:2.0) sent in
  Alcotest.(check bool) "all frames in order" true (got = sent);
  Wire.close a;
  Wire.close b

let test_wire_dup_suppression () =
  let a, b = Wire.pair () in
  (* every frame is written twice; the receiver must deliver each once *)
  Wire.set_inject a (Some (fun raw -> [ raw; raw ]));
  let sent = List.init 5 (fun i -> msg (string_of_int i)) in
  List.iter (Wire.send a) sent;
  let got = List.map (fun _ -> Wire.recv b ~timeout_s:2.0) sent in
  Alcotest.(check bool) "duplicates suppressed" true (got = sent);
  (* the last duplicate is still pending; drain it so every dup counts *)
  (match Wire.try_recv b with
  | Some _ -> Alcotest.fail "a duplicate was delivered"
  | None -> ());
  Alcotest.(check int) "every duplicate discarded" 5
    (Wire.stats b).Wire.dup_discarded;
  Wire.close a;
  Wire.close b

let test_wire_corruption_recovers_by_resend () =
  let a, b = Wire.pair () in
  (* corrupt one payload byte of the first frame only; the receiver
     nacks and the sender retransmits from its buffer *)
  let corrupted = ref false in
  Wire.set_inject a
    (Some
       (fun raw ->
         if !corrupted then [ raw ]
         else begin
           corrupted := true;
           let bytes = Bytes.of_string raw in
           let i = String.length raw - 2 in
           Bytes.set bytes i
             (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
           [ Bytes.to_string bytes ]
         end));
  Wire.send a (msg "fragile");
  (* the nack is only read when the sender receives; drive both sides *)
  let rec pump tries =
    if tries = 0 then Alcotest.fail "resend never recovered the frame"
    else
      match Wire.try_recv b with
      | Some m -> m
      | None ->
          (match Wire.try_recv a with Some _ -> () | None -> ());
          Unix.sleepf 0.01;
          pump (tries - 1)
  in
  let got = pump 200 in
  Alcotest.(check bool) "recovered payload" true (got = msg "fragile");
  Alcotest.(check bool) "checksum failure recorded" true
    ((Wire.stats b).Wire.checksum_failures >= 1);
  Alcotest.(check bool) "sender resent" true ((Wire.stats a).Wire.resent >= 1);
  Wire.close a;
  Wire.close b

let test_wire_recv_deadline () =
  let a, b = Wire.pair () in
  (match Wire.recv b ~timeout_s:0.05 with
  | _ -> Alcotest.fail "expected Timeout"
  | exception Wire.Timeout _ -> ());
  Wire.close a;
  Wire.close b

let test_wire_closed_peer () =
  let a, b = Wire.pair () in
  Wire.close a;
  match Wire.recv b ~timeout_s:1.0 with
  | _ -> Alcotest.fail "expected Closed"
  | exception Wire.Closed -> Wire.close b

let test_wire_checksum_fnv1a () =
  (* the published FNV-1a 64 vectors: cache keys and campaign ids
     derive from this function, so its values may never move *)
  List.iter
    (fun (s, h) ->
      Alcotest.(check int64) (Printf.sprintf "%S" s) h (Wire.checksum s))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

(* --- cache --------------------------------------------------------------- *)

let test_cache_roundtrip_and_corruption () =
  with_temp_dir (fun dir ->
      let key = Cache.key "plan:v1:IS" in
      let v = (42, "golden", [| 1.5; 2.5 |]) in
      let path = Cache.store ~dir ~key v in
      Alcotest.(check bool) "loads back" true
        (Cache.load ~dir ~key = Some v);
      Alcotest.(check bool) "listed" true (Cache.entries dir = [ key ]);
      (* flip a payload byte: the checksum must reject the entry, not
         crash or hand back a silently different value *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd (size - 5) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      Alcotest.(check bool) "corrupt entry loads as None" true
        ((Cache.load ~dir ~key : (int * string * float array) option) = None);
      Alcotest.(check bool) "missing key is None" true
        ((Cache.load ~dir ~key:"0000000000000000" : int option) = None))

(* --- infra taxonomy ------------------------------------------------------ *)

let test_infra_kinds_roundtrip () =
  let causes =
    [
      Infra.Trial_raised { idx = 3; message = "boom" };
      Infra.Worker_lost { pid = 123; batch = Some 7 };
      Infra.Lease_expired { batch = 7; pid = 123; heartbeat_s = 5.0 };
      Infra.Wire_fault { message = "unframed bytes" };
      Infra.Load_failed { cid = "c0003-aabbccddee"; reason = "no such app" };
    ]
  in
  List.iter
    (fun c ->
      Alcotest.(check string)
        (Infra.to_message c) (Infra.kind c)
        (Infra.kind_of_message (Infra.to_message c)))
    causes;
  (* pre-taxonomy executor messages classify as trial failures *)
  Alcotest.(check string) "legacy executor message" "trial"
    (Infra.kind_of_message "trial 17: Failure(\"flaky\")");
  Alcotest.(check string) "garbage" "unknown" (Infra.kind_of_message "whatever")

(* --- protocol codecs ----------------------------------------------------- *)

let test_proto_roundtrips () =
  let specs =
    [
      Campaign.default_spec;
      {
        Campaign.sp_app = "CG@all";
        sp_seed = 7;
        sp_trials = None;
        sp_model = Fault_model.Single_bit;
        sp_recovery = Campaign.Rollback { max_restores = 2 };
        sp_structure = Structure.Reg;
      };
    ]
  in
  List.iter
    (fun s ->
      match Campaign.spec_of_csexp (Campaign.spec_to_csexp s) with
      | Ok s' -> Alcotest.(check bool) "spec roundtrip" true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  let counts =
    { Campaign.success = 3; failed = 1; crashed = 4; recovered = 1; trials = 9;
      infra = 2 }
  in
  (match Campaign.counts_of_csexp (Campaign.counts_to_csexp counts) with
  | Ok c -> Alcotest.(check bool) "counts roundtrip" true (c = counts)
  | Error e -> Alcotest.fail e);
  let client_msgs =
    [
      Proto.Submit { spec = Campaign.default_spec; resume_id = None };
      Proto.Submit
        { spec = Campaign.default_spec; resume_id = Some "c0002-1a2b3c4d5e" };
      Proto.Status;
      Proto.Fetch { id = "c0000-0011223344" };
      Proto.Watch { id = "c0001-5566778899" };
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun m ->
      match Proto.client_of_csexp (Proto.client_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "client msg" true (m = m')
      | Error e -> Alcotest.fail e)
    client_msgs;
  let tenants =
    [
      { Proto.tn_id = "c0000-0011223344"; tn_app = "IS"; tn_state = "done";
        tn_completed = 48; tn_planned = 48; tn_leases = 0; tn_steals = 1 };
      { Proto.tn_id = "c0001-5566778899"; tn_app = "CG@all";
        tn_state = "active"; tn_completed = 5; tn_planned = 96; tn_leases = 2;
        tn_steals = 0 };
    ]
  in
  let server_msgs =
    [
      Proto.Accepted { id = "c0000-0011223344" };
      Proto.Rejected { reason = "busy" };
      Proto.Progress
        { id = "c0000-0011223344"; completed = 5; planned = 10; stolen = 1 };
      Proto.Result { id = "c0000-0011223344"; counts };
      Proto.Poisoned { id = "c0000-0011223344"; reason = "batch 3 kept dying" };
      Proto.Queued_reply { id = "c0002-1a2b3c4d5e"; position = 3 };
      Proto.Status_reply
        { Proto.st_state = "running"; st_completed = 5; st_planned = 10;
          st_campaigns = 2; st_queued = 1; st_active = 2; st_workers = 4;
          st_tenants = tenants };
      Proto.Status_reply
        { Proto.st_state = "idle"; st_completed = 0; st_planned = 0;
          st_campaigns = 0; st_queued = 0; st_active = 0; st_workers = 2;
          st_tenants = [] };
      Proto.Bye;
    ]
  in
  List.iter
    (fun m ->
      match Proto.server_of_csexp (Proto.server_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "server msg" true (m = m')
      | Error e -> Alcotest.fail e)
    server_msgs;
  let worker_msgs =
    [
      Proto.Ready { pid = 42 };
      Proto.Loaded { cid = "c0000-0011223344" };
      Proto.Load_failed { cid = "c0000-0011223344"; reason = "no such app" };
      Proto.Trial
        {
          cid = "c0000-0011223344";
          record = Executor.trial_record string_of_int 3 (Executor.Done 99);
        };
      Proto.Batch_done { cid = "c0000-0011223344"; batch = 2; retries = 1 };
    ]
  in
  List.iter
    (fun m ->
      match Proto.from_worker_of_csexp (Proto.from_worker_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "worker msg" true (m = m')
      | Error e -> Alcotest.fail e)
    worker_msgs;
  List.iter
    (fun m ->
      match Proto.to_worker_of_csexp (Proto.to_worker_to_csexp m) with
      | Ok m' -> Alcotest.(check bool) "to-worker msg" true (m = m')
      | Error e -> Alcotest.fail e)
    [
      Proto.Load { cid = "c0000-0011223344"; spec = Campaign.default_spec };
      Proto.Lease { cid = "c0000-0011223344"; batch = 0; lo = 0; hi = 16 };
      Proto.Quit;
    ]

(* --- shard journals ------------------------------------------------------ *)

let header = Csexp.List [ Csexp.Atom "hdr"; Csexp.Atom "campaign-x" ]
let rec_of i = Executor.trial_record string_of_int i (Executor.Done (i * i))

let test_shard_torn_tails_heal_per_shard () =
  with_temp_dir (fun dir ->
      let sh = Shard.create ~dir ~shards:3 ~header in
      for i = 0 to 29 do
        Shard.append sh ~shard:(i / 10) (rec_of i)
      done;
      Shard.sync_all sh;
      Shard.close sh;
      (* tear the tail of shard 1 only *)
      let path1 = List.nth (Shard.shard_paths ~dir ~shards:3) 1 in
      let size = (Unix.stat path1).Unix.st_size in
      let fd = Unix.openfile path1 [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let sh, records = Shard.open_resume ~dir ~shards:3 ~header in
      Shard.close sh;
      let parsed = List.filter_map (Executor.parse_trial int_of_string_opt) records in
      let indices = List.map fst parsed |> List.sort compare in
      (* exactly one record (shard 1's torn last) was dropped *)
      Alcotest.(check int) "one record lost to the tear" 29 (List.length parsed);
      Alcotest.(check bool) "shard 0 and 2 intact" true
        (List.for_all (fun i -> List.mem i indices)
           (List.init 10 Fun.id @ List.init 10 (fun i -> 20 + i)));
      List.iter
        (fun (i, o) ->
          Alcotest.(check bool) "payload survives" true
            (o = Executor.Done (i * i)))
        parsed)

let test_shard_header_mismatch_refuses () =
  with_temp_dir (fun dir ->
      let sh = Shard.create ~dir ~shards:2 ~header in
      Shard.close sh;
      let other = Csexp.List [ Csexp.Atom "hdr"; Csexp.Atom "campaign-y" ] in
      match Shard.open_resume ~dir ~shards:2 ~header:other with
      | _ -> Alcotest.fail "expected Header_mismatch"
      | exception Shard.Header_mismatch _ -> ())

let test_shard_compaction_dedups () =
  with_temp_dir (fun dir ->
      let sh = Shard.create ~dir ~shards:1 ~header in
      (* the same three trials re-journaled many times (stolen leases) *)
      for _round = 0 to 9 do
        for i = 0 to 2 do Shard.append sh ~shard:0 (rec_of i) done
      done;
      Shard.sync_all sh;
      let key r =
        match r with
        | Csexp.List (Csexp.Atom "t" :: Csexp.Atom idx :: _) -> Some idx
        | _ -> None
      in
      let before, after = Shard.compact sh ~key ~shard:0 in
      Shard.close sh;
      Alcotest.(check bool) "compaction shrank the shard" true (after < before);
      let sh, records = Shard.open_resume ~dir ~shards:1 ~header in
      Shard.close sh;
      Alcotest.(check int) "three records survive" 3 (List.length records))

(* --- the campaign scheduler ----------------------------------------------- *)

let pure_trial i = (i * 2654435761) land 0xFFFF

let spec ?(total = 48) ?(tag = "server-test:v1") run_trial =
  {
    Executor.tag;
    total;
    run_trial;
    encode = string_of_int;
    decode = int_of_string_opt;
    should_stop = None;
  }

let outcomes_equal a b =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

let reference_outcomes s =
  (Executor.run ~cfg:{ Executor.default_config with jobs = 1 } s)
    .Executor.outcomes

(* Test campaigns travel as wire specs like any other; the workers'
   fake loader looks the kernel up by [sp_app] — the seam remote and
   forked workers use — so a test can hand the pool trials no real app
   produces (sleeping, stalling, counting). *)
let wire app = { Campaign.default_spec with Campaign.sp_app = app }

let fake_loader kernels : Worker.loader =
 fun retry sp ->
  match List.assoc_opt sp.Campaign.sp_app kernels with
  | Some s -> Ok (Worker.runner_of_exec_spec ~retry s)
  | None -> Error ("no test kernel " ^ sp.Campaign.sp_app)

(* Submit [jobs] to a private pool of forked workers that build
   campaigns through [load], and drain it: the engine, each tenant's
   terminal event, and the submission results in order. *)
let run_pool ?(stall_s = 0.0) ~cfg ~load jobs =
  let events : (string, Sched.event) Hashtbl.t = Hashtbl.create 8 in
  let on_event id = function
    | Sched.Progress _ -> ()
    | e -> Hashtbl.replace events id e
  in
  let spawn ~close_fds =
    Worker.spawn ~stall_batch_done_s:stall_s ~close_fds
      ~load ~retry:Executor.default_config ()
  in
  let eng = Sched.create ~cfg ~spawn ~on_event () in
  let submitted = List.map (Sched.submit eng) jobs in
  Sched.drain eng;
  Sched.shutdown_workers eng;
  (eng, events, submitted)

(* [(completed, resumed)] of a tenant that must have finished *)
let finished events id =
  match Hashtbl.find_opt events id with
  | Some (Sched.Finished { completed; resumed }) -> (completed, resumed)
  | _ -> Alcotest.fail (id ^ " did not finish")

let test_server_matches_executor () =
  let s = spec pure_trial in
  let reference = reference_outcomes s in
  let job, final = Sched.tenant ~id:"job" (wire "pure") s in
  let _, events, _ =
    run_pool
      ~cfg:{ Sched.default_config with Sched.workers = 3; batch = 8 }
      ~load:(fake_loader [ ("pure", s) ]) [ job ]
  in
  let completed, _ = finished events "job" in
  Alcotest.(check int) "all trials ran" 48 completed;
  Alcotest.(check bool) "identical outcome sequence" true
    (outcomes_equal reference (final completed))

let test_server_chaos_kills_preserve_outcomes () =
  (* one batch spanning the whole campaign and a 1 ms pause per trial:
     each SIGKILL is guaranteed to land while ~dozens of trials are
     still outstanding on the dead worker's lease, so the lease MUST be
     stolen and finished by a replacement *)
  let slow_trial i = Unix.sleepf 0.001; pure_trial i in
  let reference = reference_outcomes (spec ~total:60 pure_trial) in
  let s = spec ~total:60 slow_trial in
  let job, final = Sched.tenant ~id:"job" (wire "slow") s in
  let obs = Obs.create () in
  let _, events, _ =
    run_pool
      ~cfg:
        {
          Sched.default_config with
          Sched.workers = 2;
          batch = 60;
          chaos_kills = [ 10; 35 ];
          heartbeat_s = 10.0;
          metrics = Some obs;
        }
      ~load:(fake_loader [ ("slow", s) ]) [ job ]
  in
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "both chaos kills fired" 2 (counter "server/chaos-kills");
  Alcotest.(check int) "both leases were stolen" 2
    (counter "server/leases-stolen");
  Alcotest.(check bool) "replacements were forked" true
    (counter "server/workers-forked" > 2);
  let completed, _ = finished events "job" in
  Alcotest.(check int) "all trials ran" 60 completed;
  Alcotest.(check bool) "SIGKILLs cannot change the outcome sequence" true
    (outcomes_equal reference (final completed))

let test_server_records_keep_lease_alive () =
  (* a lease that runs longer than the deadline stays alive on its
     trial records alone: 16 trials of 50 ms against a 0.5 s deadline *)
  let s = spec ~total:16 (fun i -> Unix.sleepf 0.05; pure_trial i) in
  let reference = reference_outcomes (spec ~total:16 pure_trial) in
  let job, final = Sched.tenant ~id:"job" (wire "sleepy") s in
  let obs = Obs.create () in
  let _, events, _ =
    run_pool
      ~cfg:
        {
          Sched.default_config with
          Sched.workers = 1;
          batch = 16;
          heartbeat_s = 0.5;
          metrics = Some obs;
        }
      ~load:(fake_loader [ ("sleepy", s) ]) [ job ]
  in
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "no deadline missed" 0
    (counter "server/heartbeats-missed");
  Alcotest.(check int) "no lease stolen" 0 (counter "server/leases-stolen");
  let completed, _ = finished events "job" in
  Alcotest.(check int) "all trials ran" 16 completed;
  Alcotest.(check bool) "identical outcome sequence" true
    (outcomes_equal reference (final completed))

let test_server_kill_at_batch_boundary () =
  (* the worker dies after delivering the LAST trial record of the only
     batch but before Batch_done ([stall_s] holds it in that window
     until its heartbeat deadline expires): every record arrived, so
     the stolen lease has nothing left to compute and the batch can
     only close in the scheduler's assign path.  The completed prefix
     must still advance to the full total — a stale prefix here
     silently truncates the outcomes (regression test for exactly that
     bug) *)
  let s = spec ~total:16 pure_trial in
  let reference = reference_outcomes s in
  let job, final = Sched.tenant ~id:"job" (wire "pure") s in
  let obs = Obs.create () in
  let _, events, _ =
    run_pool ~stall_s:5.0
      ~cfg:
        {
          Sched.default_config with
          Sched.workers = 1;
          batch = 16;
          heartbeat_s = 0.3;
          metrics = Some obs;
        }
      ~load:(fake_loader [ ("pure", s) ]) [ job ]
  in
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "the stalled heartbeat was missed" 1
    (counter "server/heartbeats-missed");
  Alcotest.(check int) "the orphaned lease was stolen" 1
    (counter "server/leases-stolen");
  let completed, _ = finished events "job" in
  Alcotest.(check int) "completed covers the whole campaign" 16 completed;
  Alcotest.(check bool) "identical outcome sequence" true
    (outcomes_equal reference (final completed))

let test_server_journal_resume () =
  with_temp_dir (fun dir ->
      let jdir = Filename.concat dir "journal" in
      (* trials run in forked workers: each appends one byte here, so
         the parent counts re-runs across processes *)
      let ran = Filename.concat dir "ran" in
      let counted i =
        let fd =
          Unix.openfile ran [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
        in
        ignore (Unix.write_substring fd "x" 0 1);
        Unix.close fd;
        pure_trial i
      in
      let pure = spec ~total:40 pure_trial in
      let recount = spec ~total:40 counted in
      let kernels = [ ("pure", pure); ("counted", recount) ] in
      let cfg kills =
        {
          Sched.default_config with
          Sched.workers = 2;
          batch = 5;
          shards = 2;
          chaos_kills = kills;
          heartbeat_s = 10.0;
        }
      in
      let load = fake_loader kernels in
      let job, first =
        Sched.tenant ~id:"job" ~journal:jdir (wire "pure") pure
      in
      let _, events, _ = run_pool ~cfg:(cfg [ 12 ]) ~load [ job ] in
      let completed1, _ = finished events "job" in
      Alcotest.(check int) "first run completed" 40 completed1;
      (* tear one shard's tail, as a crashed server would leave it *)
      let path0 = List.nth (Shard.shard_paths ~dir:jdir ~shards:2) 0 in
      let size = (Unix.stat path0).Unix.st_size in
      let fd = Unix.openfile path0 [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size - 4);
      Unix.close fd;
      let job, second =
        Sched.tenant ~id:"job" ~journal:jdir ~resume:true (wire "counted")
          recount
      in
      let _, events, _ = run_pool ~cfg:(cfg []) ~load [ job ] in
      let completed2, resumed = finished events "job" in
      let calls =
        if Sys.file_exists ran then (Unix.stat ran).Unix.st_size else 0
      in
      Alcotest.(check bool) "most trials resumed from the journal" true
        (resumed >= 35);
      Alcotest.(check bool) "the missing trials re-ran" true
        (calls >= 40 - resumed);
      Alcotest.(check bool) "only missing trials re-ran" true
        (calls <= 40 - resumed + 5);
      Alcotest.(check bool) "resumed run agrees with the first" true
        (outcomes_equal (first completed1) (second completed2)))

let test_server_poisons_unrunnable_campaign () =
  (* every worker that leases batch 0 stalls without heartbeating: the
     lease expires, the thief stalls too, and the campaign must be
     refused as infrastructure-broken rather than hang or fabricate *)
  let stall i = if i < 4 then Unix.sleep 30 else ();
    pure_trial i
  in
  let s = spec ~total:8 stall in
  let job, _ = Sched.tenant ~id:"job" (wire "stall") s in
  let obs = Obs.create () in
  let _, events, _ =
    run_pool
      ~cfg:
        {
          Sched.default_config with
          Sched.workers = 2;
          batch = 4;
          heartbeat_s = 0.3;
          max_lease_attempts = 1;
          metrics = Some obs;
        }
      ~load:(fake_loader [ ("stall", s) ]) [ job ]
  in
  match Hashtbl.find_opt events "job" with
  | Some (Sched.Poisoned { batch; attempts; cause }) ->
      Alcotest.(check int) "the stalling batch" 0 batch;
      Alcotest.(check bool) "after repeated lease attempts" true (attempts >= 2);
      Alcotest.(check string) "classified as a lease expiry" "lease-expired"
        (Infra.kind cause);
      Alcotest.(check bool) "heartbeat misses were counted" true
        (Option.value ~default:0 (Obs.counter_value obs "server/heartbeats-missed")
         >= 2)
  | _ -> Alcotest.fail "expected the campaign to be poisoned"

(* --- the multi-tenant scheduler ------------------------------------------ *)

let test_sched_multi_tenant_interleaving () =
  (* three campaigns interleaved on one pool of two workers, chaos
     SIGKILLs landing mid-flight, max_active 2 so the third queues:
     every tenant's outcome sequence must equal its own --jobs 1 run *)
  let mk tag total = spec ~total ~tag (fun i -> Unix.sleepf 0.001; pure_trial i) in
  let kernels =
    [ ("ten-a", mk "ten-a:v1" 48); ("ten-b", mk "ten-b:v1" 40);
      ("ten-c", mk "ten-c:v1" 32) ]
  in
  let tenants =
    List.map
      (fun (cid, s) ->
        let job, final = Sched.tenant ~id:cid (wire cid) s in
        let reference =
          reference_outcomes
            (spec ~total:s.Executor.total ~tag:s.Executor.tag pure_trial)
        in
        (cid, s, job, final, reference))
      kernels
  in
  let jobs = List.map (fun (_, _, job, _, _) -> job) tenants in
  let obs = Obs.create () in
  let cfg =
    {
      Sched.default_config with
      Sched.workers = 2;
      batch = 8;
      chaos_kills = [ 15; 60 ];
      heartbeat_s = 10.0;
      max_active = 2;
      metrics = Some obs;
    }
  in
  (* the first job again: duplicate ids are refused at the door *)
  let eng, events, submitted =
    run_pool ~cfg ~load:(fake_loader kernels) (jobs @ [ List.hd jobs ])
  in
  Alcotest.(check (list bool)) "three admitted, the duplicate id refused"
    [ true; true; true; false ]
    (List.map Result.is_ok submitted);
  let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
  Alcotest.(check int) "both chaos kills fired" 2 (counter "server/chaos-kills");
  Alcotest.(check int) "three tenants admitted" 3
    (counter "server/tenants-admitted");
  List.iter
    (fun (cid, s, _, final, reference) ->
      let completed, _ = finished events cid in
      Alcotest.(check int) (cid ^ " completed") s.Executor.total completed;
      Alcotest.(check bool) (cid ^ " byte-identical to --jobs 1") true
        (outcomes_equal reference (final completed)))
    tenants;
  List.iter
    (fun (st : Sched.tenant_stats) ->
      Alcotest.(check string) (st.Sched.ts_id ^ " state") "done"
        st.Sched.ts_state)
    (Sched.stats eng)

let test_sched_poison_isolation () =
  (* a tenant whose batch 0 stalls forever is poisoned after its lease
     attempts are exhausted — and ONLY that tenant: its pool-mate keeps
     its workers and finishes byte-identical *)
  let sick_trial i = if i < 4 then Unix.sleep 30; pure_trial i in
  let sick = spec ~total:8 ~tag:"sick:v1" sick_trial in
  let well =
    spec ~total:32 ~tag:"well:v1" (fun i -> Unix.sleepf 0.002; pure_trial i)
  in
  let kernels = [ ("sick", sick); ("well", well) ] in
  let well_ref =
    reference_outcomes (spec ~total:32 ~tag:"well:v1" pure_trial)
  in
  let sick_job, _ = Sched.tenant ~id:"sick" (wire "sick") sick in
  let well_job, well_final = Sched.tenant ~id:"well" (wire "well") well in
  let cfg =
    {
      Sched.default_config with
      Sched.workers = 2;
      batch = 4;
      heartbeat_s = 0.3;
      max_lease_attempts = 1;
      max_active = 2;
    }
  in
  let eng, events, _ =
    run_pool ~cfg ~load:(fake_loader kernels) [ sick_job; well_job ]
  in
  (match Hashtbl.find_opt events "sick" with
  | Some (Sched.Poisoned { batch; cause; _ }) ->
      Alcotest.(check int) "the stalling batch" 0 batch;
      Alcotest.(check string) "classified as a lease expiry" "lease-expired"
        (Infra.kind cause)
  | _ -> Alcotest.fail "sick tenant was not poisoned");
  let completed, _ = finished events "well" in
  Alcotest.(check int) "well tenant unharmed" 32 completed;
  Alcotest.(check bool) "well tenant byte-identical to --jobs 1" true
    (outcomes_equal well_ref (well_final completed));
  let states =
    List.map (fun (s : Sched.tenant_stats) -> (s.Sched.ts_id, s.Sched.ts_state))
      (Sched.stats eng)
  in
  Alcotest.(check bool) "stats isolate the poison" true
    (List.assoc "sick" states = "poisoned" && List.assoc "well" states = "done")

let test_sched_remote_worker_vanishes () =
  (* a remote-only pool: two attached workers serving a spec-driven
     campaign; a chaos kill drops one connection exactly the way a
     vanished machine would, the survivor steals the lease, and the
     counts still match --jobs 1 *)
  with_temp_dir (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let cspec =
        { Campaign.default_spec with Campaign.sp_app = "IS"; sp_trials = Some 32 }
      in
      let ex_spec =
        match Plan.spec_of_submission ~cache_dir cspec with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let reference = reference_outcomes ex_spec in
      let job, final = Sched.tenant ~id:"remote-job" cspec ex_spec in
      let events : (string, Sched.event) Hashtbl.t = Hashtbl.create 4 in
      let on_event id = function
        | Sched.Progress _ -> ()
        | e -> Hashtbl.replace events id e
      in
      let obs = Obs.create () in
      let cfg =
        {
          Sched.default_config with
          Sched.workers = 0;
          batch = 8;
          chaos_kills = [ 10 ];
          heartbeat_s = 10.0;
          metrics = Some obs;
        }
      in
      (* no [spawn]: the pool is exactly the two attached workers *)
      let eng = Sched.create ~cfg ~on_event () in
      let pids =
        List.init 2 (fun _ ->
            let pid, conn =
              Worker.spawn
                ~load:(Worker.plan_loader ~cache_dir)
                ~retry:Executor.default_config ()
            in
            Sched.attach_remote eng conn;
            pid)
      in
      Alcotest.(check int) "two remotes attached" 2 (Sched.worker_count eng);
      (match Sched.submit eng job with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Sched.drain eng;
      Sched.shutdown_workers eng;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        pids;
      let counter n = Option.value ~default:0 (Obs.counter_value obs n) in
      Alcotest.(check int) "one remote vanished" 1 (counter "server/chaos-kills");
      Alcotest.(check bool) "its lease was stolen" true
        (counter "server/leases-stolen" >= 1);
      let completed, _ = finished events "remote-job" in
      Alcotest.(check int) "all trials ran" ex_spec.Executor.total completed;
      Alcotest.(check bool) "byte-identical to --jobs 1" true
        (outcomes_equal reference (final completed)))

(* --- the acceptance gate: a real campaign under worker SIGKILL ----------- *)

let test_chaos_campaign_counts_byte_identical () =
  with_temp_dir (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let cspec =
        {
          Campaign.default_spec with
          Campaign.sp_app = "IS";
          sp_trials = Some 48;
        }
      in
      match Plan.plan_of_app ~cache_dir "IS" with
      | Error e -> Alcotest.fail e
      | Ok plan ->
          (* the --jobs 1 reference, through the very same plan and kernel *)
          let s = Plan.campaign_spec plan (Campaign.config_of_spec cspec) in
          let reference =
            Executor.run ~cfg:{ Executor.default_config with jobs = 1 } s
          in
          let ref_counts =
            Campaign.counts_of_outcomes reference.Executor.outcomes
          in
          let job, final = Sched.tenant ~id:"job" cspec s in
          let obs = Obs.create () in
          let _, events, _ =
            run_pool
              ~cfg:
                {
                  Sched.default_config with
                  Sched.workers = 2;
                  batch = 8;
                  chaos_kills = [ 10; 30 ];
                  heartbeat_s = 10.0;
                  metrics = Some obs;
                }
              ~load:(Worker.plan_loader ~cache_dir) [ job ]
          in
          Alcotest.(check bool) "at least one worker was SIGKILLed" true
            (Option.value ~default:0
               (Obs.counter_value obs "server/chaos-kills")
            >= 1);
          let completed, _ = finished events "job" in
          Alcotest.(check int) "all trials ran" reference.Executor.completed
            completed;
          (* the headline invariant: byte-identical counts, infra and
             recovery fields included *)
          Alcotest.(check string) "counts byte-identical to --jobs 1"
            (Csexp.to_string (Campaign.counts_to_csexp ref_counts))
            (Csexp.to_string
               (Campaign.counts_to_csexp
                  (Campaign.counts_of_outcomes (final completed)))))

(* --- the socket service end to end --------------------------------------- *)

let test_serve_two_tenants_fetch_by_id () =
  (* a forked server, two concurrent submissions of the SAME spec (the
     journal-collision regression: distinct ids, distinct directories),
     then the results fetched by id over fresh connections *)
  with_temp_dir (fun dir ->
      let socket = Filename.concat dir "ft.sock" in
      let cache_dir = Filename.concat dir "cache" in
      let jroot = Filename.concat dir "journals" in
      let cfg =
        {
          Server.default_config with
          Server.workers = 2;
          batch = 8;
          journal_dir = Some jroot;
          heartbeat_s = 10.0;
        }
      in
      let server_pid = Unix.fork () in
      if server_pid = 0 then begin
        (try Server.serve ~cfg ~cache_dir ~socket () with _ -> ());
        Unix._exit 0
      end;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let cspec =
            {
              Campaign.default_spec with
              Campaign.sp_app = "IS";
              sp_trials = Some 24;
            }
          in
          let retry =
            {
              Executor.default_config with
              Executor.max_retries = 8;
              retry_backoff_s = 0.25;
            }
          in
          (* the second tenant submits from a child process, concurrently *)
          let sub_pid = Unix.fork () in
          if sub_pid = 0 then
            Unix._exit
              (match Client.submit ~retry ~timeout_s:120.0 ~socket cspec with
              | Ok _ -> 0
              | Error _ -> 1);
          (match Client.submit ~retry ~timeout_s:120.0 ~socket cspec with
          | Ok (id, counts) ->
              Alcotest.(check bool) "a campaign id was minted" true
                (String.length id >= 6);
              Alcotest.(check int) "all trials counted" 24
                counts.Campaign.trials
          | Error e -> Alcotest.fail (Client.error_message e));
          let _, st = Unix.waitpid [] sub_pid in
          Alcotest.(check bool) "concurrent submit succeeded" true
            (st = Unix.WEXITED 0);
          (match Client.status ~retry ~socket () with
          | Ok s ->
              let ids =
                List.map (fun t -> t.Proto.tn_id) s.Proto.st_tenants
              in
              Alcotest.(check int) "two tenants served" 2 (List.length ids);
              (match ids with
              | [ a; b ] ->
                  Alcotest.(check bool) "identical specs, distinct ids" true
                    (not (String.equal a b))
              | _ -> ());
              List.iter
                (fun id ->
                  Alcotest.(check bool) (id ^ " has its own journal dir") true
                    (Sys.is_directory (Filename.concat jroot id)))
                ids;
              (* fetch on fresh connections: the verdicts outlive the
                 submitting connections *)
              let encs =
                List.map
                  (fun id ->
                    match Client.fetch ~retry ~socket ~id () with
                    | Ok (Client.Finished c) ->
                        Csexp.to_string (Campaign.counts_to_csexp c)
                    | Ok _ -> Alcotest.fail "expected a finished verdict"
                    | Error e -> Alcotest.fail (Client.error_message e))
                  ids
              in
              (match encs with
              | [ a; b ] ->
                  Alcotest.(check string)
                    "identical specs, byte-identical counts" a b
              | _ -> ());
              (* watch on a finished campaign returns immediately *)
              (match
                 Client.watch ~retry ~socket ~id:(List.hd ids) ()
               with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (Client.error_message e))
          | Error e -> Alcotest.fail (Client.error_message e));
          (match Client.fetch ~retry ~socket ~id:"c9999-doesnotexis" () with
          | Error (Client.Refused _) -> ()
          | Ok _ | Error _ -> Alcotest.fail "unknown id must be refused");
          (match Client.shutdown ~socket () with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Client.error_message e));
          ignore (Unix.waitpid [] server_pid)))

let test_client_retry_bounded_unreachable () =
  (* no server at all: the client retries under the jittered-backoff
     policy and then fails with a structured error, never a hang *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ft-nosock-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  let retry =
    {
      Executor.default_config with
      Executor.max_retries = 2;
      retry_backoff_s = 0.02;
      retry_jitter = 0.5;
    }
  in
  let t0 = Unix.gettimeofday () in
  (match Client.status ~retry ~socket () with
  | Ok _ -> Alcotest.fail "expected Unreachable"
  | Error (Client.Unreachable { attempts; _ }) ->
      Alcotest.(check int) "attempts bounded by max_retries + 1" 3 attempts
  | Error e -> Alcotest.fail (Client.error_message e));
  Alcotest.(check bool) "slept between attempts" true
    (Unix.gettimeofday () -. t0 >= 0.02)

(* --- jittered backoff (satellite) ---------------------------------------- *)

let test_backoff_jitter_bounds_and_determinism () =
  let cfg = { Executor.default_config with retry_backoff_s = 0.1; retry_jitter = 0.5 } in
  for idx = 0 to 40 do
    for k = 0 to 3 do
      let s = Executor.backoff_s cfg idx k in
      let step = 0.1 *. Float.of_int (1 lsl k) in
      Alcotest.(check bool) "within [0.5x, 1.5x]" true
        (s >= (0.5 *. step) -. 1e-12 && s <= (1.5 *. step) +. 1e-12);
      Alcotest.(check (float 0.0)) "deterministic per (trial, attempt)" s
        (Executor.backoff_s cfg idx k)
    done
  done;
  let locked = { cfg with Executor.retry_jitter = 0.0 } in
  Alcotest.(check (float 1e-12)) "jitter 0 restores the historical schedule"
    0.4
    (Executor.backoff_s locked 7 2);
  (* distinct trials de-synchronize: not all equal *)
  let sleeps = List.init 20 (fun i -> Executor.backoff_s cfg i 0) in
  Alcotest.(check bool) "trials spread out" true
    (List.exists (fun s -> abs_float (s -. List.hd sleeps) > 1e-6) sleeps)

let suite =
  ( "server",
    [
      Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
      Alcotest.test_case "wire dup suppression" `Quick test_wire_dup_suppression;
      Alcotest.test_case "wire corruption resend" `Quick
        test_wire_corruption_recovers_by_resend;
      Alcotest.test_case "wire recv deadline" `Quick test_wire_recv_deadline;
      Alcotest.test_case "wire closed peer" `Quick test_wire_closed_peer;
      Alcotest.test_case "wire checksum is FNV-1a 64" `Quick
        test_wire_checksum_fnv1a;
      Alcotest.test_case "cache roundtrip + corruption" `Quick
        test_cache_roundtrip_and_corruption;
      Alcotest.test_case "infra kinds roundtrip" `Quick test_infra_kinds_roundtrip;
      Alcotest.test_case "protocol codecs roundtrip" `Quick test_proto_roundtrips;
      Alcotest.test_case "shard torn tails heal per shard" `Quick
        test_shard_torn_tails_heal_per_shard;
      Alcotest.test_case "shard header mismatch refuses" `Quick
        test_shard_header_mismatch_refuses;
      Alcotest.test_case "shard compaction dedups" `Quick
        test_shard_compaction_dedups;
      Alcotest.test_case "server matches executor" `Quick
        test_server_matches_executor;
      Alcotest.test_case "chaos kills preserve outcomes" `Quick
        test_server_chaos_kills_preserve_outcomes;
      Alcotest.test_case "trial records keep a long lease alive" `Quick
        test_server_records_keep_lease_alive;
      Alcotest.test_case "kill at batch boundary keeps full prefix" `Quick
        test_server_kill_at_batch_boundary;
      Alcotest.test_case "journal resume after torn shard" `Quick
        test_server_journal_resume;
      Alcotest.test_case "unrunnable campaign poisons" `Quick
        test_server_poisons_unrunnable_campaign;
      Alcotest.test_case "multi-tenant interleaving is deterministic" `Quick
        test_sched_multi_tenant_interleaving;
      Alcotest.test_case "poison is isolated to its tenant" `Quick
        test_sched_poison_isolation;
      Alcotest.test_case "vanished remote worker degrades gracefully" `Slow
        test_sched_remote_worker_vanishes;
      Alcotest.test_case "chaos campaign counts byte-identical" `Slow
        test_chaos_campaign_counts_byte_identical;
      Alcotest.test_case "serve: two tenants, fetch by id" `Slow
        test_serve_two_tenants_fetch_by_id;
      Alcotest.test_case "client retry is bounded and structured" `Quick
        test_client_retry_bounded_unreachable;
      Alcotest.test_case "backoff jitter bounds + determinism" `Quick
        test_backoff_jitter_bounds_and_determinism;
    ] )
