(* The resilient campaign executor and its parts: csexp wire format,
   append-only journal with torn-tail healing, domain pool, refreshable
   worker deadlines, and the engine's determinism / resume / retry /
   early-stop contracts. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let with_temp_file f =
  let path = Filename.temp_file "fliptracker" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_contents path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

(* --- csexp --------------------------------------------------------------- *)

let sample_values =
  Csexp.
    [
      Atom "";
      Atom "plain";
      Atom "with (parens) 7:and \n colons:";
      List [];
      List [ Atom "t"; Atom "12"; Atom "ok"; Atom "S" ];
      List [ List [ Atom "nested" ]; List [ List []; Atom "deep" ] ];
    ]

let test_csexp_roundtrip () =
  List.iter
    (fun v ->
      match Csexp.of_string (Csexp.to_string v) with
      | Some v' -> Alcotest.(check bool) "roundtrip" true (v = v')
      | None -> Alcotest.fail "roundtrip decode failed")
    sample_values

let test_csexp_rejects_malformed () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Csexp.of_string s = None))
    [ "("; ")"; "5:abc"; "3:abcd"; "x"; "12"; "(3:abc"; "3:abc3:def" ]

let test_csexp_prefix_stops_at_torn_tail () =
  let a = Csexp.List [ Csexp.Atom "first"; Csexp.Atom "record" ] in
  let b = Csexp.List [ Csexp.Atom "second" ] in
  let whole = Csexp.to_string a ^ Csexp.to_string b in
  (* cut into the middle of the second record *)
  let cut = String.length (Csexp.to_string a) + 3 in
  let torn = String.sub whole 0 cut in
  let records, stop = Csexp.decode_prefix torn in
  Alcotest.(check bool) "only the complete record" true (records = [ a ]);
  Alcotest.(check int) "stops at the tear" (String.length (Csexp.to_string a)) stop;
  let all, stop_all = Csexp.decode_prefix whole in
  Alcotest.(check bool) "well-formed input decodes fully" true (all = [ a; b ]);
  Alcotest.(check int) "consumes everything" (String.length whole) stop_all

let prop_csexp_atom_roundtrip =
  QCheck.Test.make ~count:300 ~name:"csexp atoms survive any byte content"
    QCheck.(small_list printable_string)
    (fun atoms ->
      let v = Csexp.List (List.map (fun s -> Csexp.Atom s) atoms) in
      Csexp.of_string (Csexp.to_string v) = Some v)

(* --- journal ------------------------------------------------------------- *)

let test_journal_roundtrip () =
  with_temp_file (fun path ->
      let w = Journal.create path in
      List.iter (Journal.write w) sample_values;
      Journal.close w;
      let records, _ = Journal.load path in
      Alcotest.(check bool) "all records back" true (records = sample_values))

let test_journal_missing_file () =
  let records, stop = Journal.load "/nonexistent/fliptracker.journal" in
  Alcotest.(check bool) "missing file is empty" true (records = [] && stop = 0)

let test_journal_heals_torn_tail () =
  with_temp_file (fun path ->
      let a = Csexp.Atom "alpha" and b = Csexp.Atom "beta" in
      let w = Journal.create path in
      Journal.write w a;
      Journal.write w b;
      Journal.close w;
      let intact = file_contents path in
      (* a crash mid-append leaves a torn record at the tail *)
      truncate_file path (String.length intact - 2);
      let records, valid_end = Journal.load path in
      Alcotest.(check bool) "torn tail dropped" true (records = [ a ]);
      (* healing: truncate to the valid prefix, then append more *)
      let w = Journal.open_append ~truncate_at:valid_end path in
      Journal.write w (Csexp.Atom "gamma");
      Journal.close w;
      let records, _ = Journal.load path in
      Alcotest.(check bool) "healed and extended" true
        (records = [ a; Csexp.Atom "gamma" ]))

(* --- pool ---------------------------------------------------------------- *)

let test_pool_preserves_order () =
  let xs = Array.init 100 Fun.id in
  [ 1; 2; 4 ]
  |> List.iter (fun jobs ->
         let ys = Pool.map ~jobs (fun x -> (3 * x) + 1) xs in
         Alcotest.(check bool)
           (Printf.sprintf "jobs=%d" jobs)
           true
           (ys = Array.map (fun x -> (3 * x) + 1) xs))

let test_pool_propagates_exception () =
  let xs = Array.init 32 Fun.id in
  match Pool.map ~jobs:4 (fun x -> if x = 17 then failwith "boom" else x) xs with
  | _ -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Failure m -> Alcotest.(check string) "first exception" "boom" m

(* --- worker deadlines ---------------------------------------------------- *)

let test_deadline_refresh () =
  let d = Watchdog.arm ~seconds:0.5 in
  Alcotest.(check bool) "fresh deadline holds" false
    (Watchdog.deadline_expired d);
  Unix.sleepf 0.6;
  Alcotest.(check bool) "lapses after its period" true
    (Watchdog.deadline_expired d);
  Watchdog.refresh d;
  Alcotest.(check bool) "refresh pushes it out a full period" false
    (Watchdog.deadline_expired d);
  let gone = Watchdog.arm ~seconds:(-1.0) in
  Alcotest.(check bool) "negative period: expired at once" true
    (Watchdog.deadline_expired gone);
  Watchdog.refresh gone;
  Alcotest.(check bool) "and refresh cannot revive it" true
    (Watchdog.deadline_expired gone)

(* --- executor ------------------------------------------------------------ *)

(* trial i -> a small deterministic payload *)
let pure_trial i = (i * 2654435761) land 0xFFFF

let spec ?should_stop ?(total = 100) ?(tag = "test:v1") run_trial =
  {
    Executor.tag;
    total;
    run_trial;
    encode = string_of_int;
    decode = int_of_string_opt;
    should_stop;
  }

let outcomes_equal a b =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

let test_executor_jobs_invariance () =
  let run jobs =
    Executor.run
      ~cfg:{ Executor.default_config with jobs; batch = 16 }
      (spec pure_trial)
  in
  let base = run 1 and par = run 4 in
  Alcotest.(check int) "all trials ran" 100 base.Executor.completed;
  Alcotest.(check bool) "jobs=1 and jobs=4 agree" true
    (outcomes_equal base.Executor.outcomes par.Executor.outcomes)

let test_executor_resume_after_truncation () =
  with_temp_file (fun path ->
      let cfg jobs resume =
        {
          Executor.default_config with
          jobs;
          batch = 8;
          journal = Some path;
          resume;
        }
      in
      let full = Executor.run ~cfg:(cfg 1 false) (spec pure_trial) in
      (* simulate a kill mid-campaign: chop the journal, possibly
         mid-record *)
      let intact = file_contents path in
      truncate_file path (String.length intact * 2 / 3);
      let calls = ref 0 in
      let counted i =
        incr calls;
        pure_trial i
      in
      let resumed = Executor.run ~cfg:(cfg 2 true) (spec counted) in
      Alcotest.(check bool) "some trials came from the journal" true
        (resumed.Executor.resumed > 0);
      Alcotest.(check int) "only the missing trials re-ran"
        (100 - resumed.Executor.resumed)
        !calls;
      Alcotest.(check bool) "identical outcome sequence" true
        (outcomes_equal full.Executor.outcomes resumed.Executor.outcomes))

(* The torn-tail contract, exhaustively: truncate a finished journal at
   EVERY byte boundary; each cut must heal to the longest valid record
   prefix, and resuming from it must reproduce the --jobs 1 outcomes
   exactly and leave a fully valid, header-first journal behind. *)
let test_journal_heals_at_every_byte_boundary () =
  with_temp_file (fun path ->
      let total = 12 in
      let cfg resume =
        {
          Executor.default_config with
          jobs = 1;
          batch = 4;
          journal = Some path;
          resume;
        }
      in
      let full = Executor.run ~cfg:(cfg false) (spec ~total pure_trial) in
      let intact = file_contents path in
      let full_records, full_end = Journal.load path in
      Alcotest.(check int) "intact journal is fully valid"
        (String.length intact) full_end;
      (* cumulative end offset of record k's "encoded bytes + newline" *)
      let cums =
        List.rev
          (List.fold_left
             (fun acc r ->
               let len = String.length (Csexp.to_string r) + 1 in
               match acc with [] -> [ len ] | c :: _ -> (c + len) :: acc)
             [] full_records)
      in
      for cut = 0 to String.length intact do
        let oc = open_out_bin path in
        output_string oc (String.sub intact 0 cut);
        close_out oc;
        let records, valid_end = Journal.load path in
        (* a record survives iff its final byte (just before its
           newline) fits under the cut *)
        let surviving = List.filter (fun c -> c - 1 <= cut) cums in
        let expected_count = List.length surviving in
        let expected_end =
          match List.rev surviving with [] -> 0 | last :: _ -> min cut last
        in
        Alcotest.(check int)
          (Printf.sprintf "cut %d: longest valid prefix" cut)
          expected_count (List.length records);
        Alcotest.(check int)
          (Printf.sprintf "cut %d: heal offset" cut)
          expected_end valid_end;
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: surviving records unchanged" cut)
          true
          (records
          = List.filteri (fun i _ -> i < expected_count) full_records);
        let resumed = Executor.run ~cfg:(cfg true) (spec ~total pure_trial) in
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: resume reproduces --jobs 1 outcomes" cut)
          true
          (outcomes_equal full.Executor.outcomes resumed.Executor.outcomes);
        Alcotest.(check int)
          (Printf.sprintf "cut %d: exactly the surviving trials resumed" cut)
          (max 0 (expected_count - 1))
          resumed.Executor.resumed;
        (* the healed journal must itself be whole and resumable *)
        let healed, healed_end = Journal.load path in
        Alcotest.(check int)
          (Printf.sprintf "cut %d: healed journal fully valid" cut)
          ((Unix.stat path).Unix.st_size)
          healed_end;
        match healed with
        | first :: _ when first = List.hd full_records -> ()
        | _ ->
            Alcotest.fail
              (Printf.sprintf "cut %d: healed journal lost its header" cut)
      done)

let test_executor_rejects_foreign_journal () =
  with_temp_file (fun path ->
      let cfg resume =
        { Executor.default_config with journal = Some path; resume }
      in
      let _ = Executor.run ~cfg:(cfg false) (spec ~tag:"campaign-a" pure_trial) in
      match Executor.run ~cfg:(cfg true) (spec ~tag:"campaign-b" pure_trial) with
      | _ -> Alcotest.fail "expected a tag-mismatch failure"
      | exception Failure m ->
          Alcotest.(check bool) "message names both tags" true
            (contains ~sub:"campaign-a" m && contains ~sub:"campaign-b" m))

let test_executor_retries_transient_failure () =
  let attempts = Hashtbl.create 16 in
  let flaky i =
    let k = try Hashtbl.find attempts i with Not_found -> 0 in
    Hashtbl.replace attempts i (k + 1);
    if i mod 10 = 3 && k = 0 then failwith "transient";
    pure_trial i
  in
  let report =
    Executor.run
      ~cfg:{ Executor.default_config with retry_backoff_s = 0.0 }
      (spec ~total:40 flaky)
  in
  Alcotest.(check int) "no infra errors after retry" 0
    report.Executor.infra_errors;
  Alcotest.(check int) "campaign completed" 40 report.Executor.completed;
  Alcotest.(check bool) "flaky trials retried once" true
    (Hashtbl.find attempts 3 = 2 && Hashtbl.find attempts 13 = 2)

let test_executor_isolates_persistent_failure () =
  let bad i = if i = 7 then failwith "disk on fire" else pure_trial i in
  let report =
    Executor.run
      ~cfg:{ Executor.default_config with retry_backoff_s = 0.0; max_retries = 1 }
      (spec ~total:20 bad)
  in
  Alcotest.(check int) "campaign still completed" 20 report.Executor.completed;
  Alcotest.(check int) "exactly one infra error" 1 report.Executor.infra_errors;
  (match report.Executor.outcomes.(7) with
  | Executor.Infra_error m ->
      Alcotest.(check bool) "message kept" true (contains ~sub:"disk on fire" m)
  | Executor.Done _ -> Alcotest.fail "trial 7 should be an infra error");
  Alcotest.(check bool) "neighbors unaffected" true
    (report.Executor.outcomes.(6) = Executor.Done (pure_trial 6))

let test_executor_early_stop_is_honest () =
  let report =
    Executor.run
      ~cfg:{ Executor.default_config with batch = 16 }
      (spec (fun i -> i)
         ~should_stop:(fun outcomes n -> Array.length outcomes >= 32 && n >= 32))
  in
  Alcotest.(check bool) "stopped early" true report.Executor.stopped_early;
  Alcotest.(check int) "stopped at the batch boundary" 32
    report.Executor.completed;
  Alcotest.(check int) "plan still reported" 100 report.Executor.planned;
  Alcotest.(check int) "outcomes match the completed prefix" 32
    (Array.length report.Executor.outcomes)

let test_executor_progress_reported () =
  let seen = ref [] in
  let _ =
    Executor.run
      ~cfg:
        {
          Executor.default_config with
          batch = 25;
          on_progress = Some (fun p -> seen := p :: !seen);
        }
      (spec pure_trial)
  in
  let seen = List.rev !seen in
  Alcotest.(check (list int)) "one report per batch" [ 25; 50; 75; 100 ]
    (List.map (fun (p : Executor.progress) -> p.Executor.completed) seen);
  List.iter
    (fun (p : Executor.progress) ->
      Alcotest.(check int) "planned is stable" 100 p.Executor.planned;
      Alcotest.(check bool) "eta is finite and non-negative" true
        (p.Executor.eta_s >= 0.0 && Float.is_finite p.Executor.eta_s))
    seen

let suite =
  ( "runtime",
    [
      Alcotest.test_case "csexp roundtrip" `Quick test_csexp_roundtrip;
      Alcotest.test_case "csexp rejects malformed" `Quick
        test_csexp_rejects_malformed;
      Alcotest.test_case "csexp torn tail" `Quick
        test_csexp_prefix_stops_at_torn_tail;
      QCheck_alcotest.to_alcotest prop_csexp_atom_roundtrip;
      Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
      Alcotest.test_case "journal missing file" `Quick test_journal_missing_file;
      Alcotest.test_case "journal heals torn tail" `Quick
        test_journal_heals_torn_tail;
      Alcotest.test_case "pool preserves order" `Quick test_pool_preserves_order;
      Alcotest.test_case "pool propagates exceptions" `Quick
        test_pool_propagates_exception;
      Alcotest.test_case "deadline arm, refresh, expiry" `Quick
        test_deadline_refresh;
      Alcotest.test_case "executor jobs invariance" `Quick
        test_executor_jobs_invariance;
      Alcotest.test_case "journal heals at every byte boundary" `Quick
        test_journal_heals_at_every_byte_boundary;
      Alcotest.test_case "executor resume after truncation" `Quick
        test_executor_resume_after_truncation;
      Alcotest.test_case "executor rejects foreign journal" `Quick
        test_executor_rejects_foreign_journal;
      Alcotest.test_case "executor retries transient failures" `Quick
        test_executor_retries_transient_failure;
      Alcotest.test_case "executor isolates persistent failures" `Quick
        test_executor_isolates_persistent_failure;
      Alcotest.test_case "executor early stop" `Quick
        test_executor_early_stop_is_honest;
      Alcotest.test_case "executor progress" `Quick test_executor_progress_reported;
    ] )
