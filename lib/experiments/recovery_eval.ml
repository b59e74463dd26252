(* Paired recovery campaigns across fault models; see the mli. *)

type mode = Serial | Mpi of int

let mode_to_string = function
  | Serial -> "serial"
  | Mpi n -> Printf.sprintf "mpi(%d)" n

type cell = {
  rc_mode : mode;
  rc_model : Fault_model.t;
  rc_recovery : Campaign.recovery;
  rc_counts : Campaign.counts;
}

type message_cell = {
  rm_kind : string;
  rm_reliable : bool;
  rm_counts : Campaign.counts;
  rm_injected : int;
  rm_resent : int;
}

type report = {
  re_app : string;
  re_seed : int;
  re_size : int;
  re_serial_trials : int;
  re_mpi_trials : int;
  re_msg_trials : int;
  re_clean_instructions : int;
  re_cells : cell list;
  re_messages : message_cell list;
}

let default_models =
  [
    Fault_model.Single_bit;
    Fault_model.Double_adjacent;
    Fault_model.Burst 8;
    Fault_model.Stuck_at;
  ]

let default_policies =
  [ Campaign.No_recovery; Campaign.Rollback { max_restores = 3 } ]

(* The wrapped program carries the ring-exchange epilogue but is
   serial-identical to the original (the [np > 1] guard), so serial and
   parallel cells run the *same* program — the Wu-style comparison the
   paper makes between serial and MPI manifestations. *)
let wrapped_program (app : App.t) : Prog.t =
  let r = App.reference_value app in
  let prog =
    Compile.compile (Mpi_wrap.ring_exchange (app.App.build ~ref_value:(Some r)))
  in
  match app.App.transform with Some f -> f prog | None -> prog

let evaluate ?(seed = Campaign.default_config.Campaign.seed)
    ?(models = default_models) ?(policies = default_policies) ?(size = 4)
    ?(serial_trials = 120) ?(mpi_trials = 40) ?(msg_trials = 12)
    ?(recv_timeout_s = 2.0) (app : App.t) : report =
  let prog = wrapped_program app in
  let verify = App.verify app in
  let iter_mark = Prog.mark_id prog App.iter_mark_name in
  let clean, target = Campaign.streamed_whole_program_target ~iter_mark prog in
  (match clean.Machine.outcome with
  | Machine.Finished -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Recovery_eval: %s fault-free run did not finish"
           app.App.name));
  let clean_instructions = clean.Machine.instructions in
  let budget =
    Campaign.default_config.Campaign.budget_factor * clean_instructions
  in
  (* serial cells ride the resilient executor: trial [i] of every cell
     draws from [Rng.derive ~seed ~index:i], and site selection is the
     stream's first draws, shared by all models — paired in the
     strongest available sense *)
  let serial_cell model recovery =
    let cfg =
      {
        Campaign.default_config with
        seed;
        max_trials = Some serial_trials;
        model;
        recovery;
      }
    in
    let counts =
      Campaign.run prog ~verify ~clean_instructions ~cfg target
    in
    { rc_mode = Serial; rc_model = model; rc_recovery = recovery; rc_counts = counts }
  in
  (* parallel cells inject the same per-trial sampled fault into one
     rank of a [size]-rank bundle (the victim rank is the next draw of
     the same stream) and classify the whole bundle *)
  let mpi_cell model recovery =
    let recover = Campaign.machine_recover recovery in
    let counts = ref Campaign.zero_counts in
    for i = 0 to mpi_trials - 1 do
      let rng = Rng.derive ~seed ~index:i in
      let fault = Campaign.sample_fault ~model rng target in
      let rank = Rng.int rng size in
      let b =
        Runner.run ~size ~fault:(rank, fault) ?recover ~budget
          ~recv_timeout_s prog
      in
      counts := Campaign.add_outcome !counts (Runner.classify ~verify b)
    done;
    {
      rc_mode = Mpi size;
      rc_model = model;
      rc_recovery = recovery;
      rc_counts = !counts;
    }
  in
  let cells =
    List.concat_map
      (fun model ->
        List.concat_map
          (fun policy -> [ serial_cell model policy; mpi_cell model policy ])
          policies)
      models
  in
  (* message-fault cells: no VM fault, the transport itself misbehaves;
     the raw transport shows the failure mode, the reliable transport
     shows the recovery (checksums + receiver-driven resend) *)
  let message_cell kind (plan_of : int -> Comm.fault_plan) reliable =
    let counts = ref Campaign.zero_counts in
    let injected = ref 0 and resent = ref 0 in
    for i = 0 to msg_trials - 1 do
      let b =
        Runner.run ~size ~faults:(plan_of i) ~reliable
          ~recv_timeout_s:(min recv_timeout_s 0.75) ~budget prog
      in
      let s = b.Runner.comm_stats in
      injected :=
        !injected + s.Comm.dropped + s.Comm.corrupted + s.Comm.duplicated;
      resent := !resent + s.Comm.resent;
      counts := Campaign.add_outcome !counts (Runner.classify ~verify b)
    done;
    {
      rm_kind = kind;
      rm_reliable = reliable;
      rm_counts = !counts;
      rm_injected = !injected;
      rm_resent = !resent;
    }
  in
  let plan p i =
    let trial_seed = (seed * 8191) + (1009 * i) in
    match p with
    | `Drop -> { Comm.seed = trial_seed; drop_p = 0.25; corrupt_p = 0.0; dup_p = 0.0 }
    | `Corrupt ->
        { Comm.seed = trial_seed; drop_p = 0.0; corrupt_p = 0.25; dup_p = 0.0 }
    | `Dup -> { Comm.seed = trial_seed; drop_p = 0.0; corrupt_p = 0.0; dup_p = 0.25 }
  in
  let messages =
    List.concat_map
      (fun (kind, p) ->
        [
          message_cell kind (plan p) false;
          message_cell kind (plan p) true;
        ])
      [ ("drop", `Drop); ("corrupt", `Corrupt); ("duplicate", `Dup) ]
  in
  {
    re_app = app.App.name;
    re_seed = seed;
    re_size = size;
    re_serial_trials = serial_trials;
    re_mpi_trials = mpi_trials;
    re_msg_trials = msg_trials;
    re_clean_instructions = clean_instructions;
    re_cells = cells;
    re_messages = messages;
  }

let find_cell (r : report) ~mode ~model ~recovery =
  List.find_opt
    (fun c ->
      c.rc_mode = mode && c.rc_model = model && c.rc_recovery = recovery)
    r.re_cells

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "@[<v>%s: paired recovery campaigns (seed %d; serial %d trials, %s %d \
     trials, message %d trials)@,"
    r.re_app r.re_seed r.re_serial_trials
    (mode_to_string (Mpi r.re_size))
    r.re_mpi_trials r.re_msg_trials;
  Fmt.pf ppf "%-8s %-15s %-11s %6s %6s %6s %6s %6s  %8s %8s %8s@," "mode"
    "model" "recovery" "trials" "benign" "SDC" "crash" "recov" "SDCrate"
    "crashrt" "recovrt";
  List.iter
    (fun c ->
      let k = c.rc_counts in
      Fmt.pf ppf "%-8s %-15s %-11s %6d %6d %6d %6d %6d  %8.4f %8.4f %8.4f@,"
        (mode_to_string c.rc_mode)
        (Fault_model.to_string c.rc_model)
        (Campaign.recovery_to_string c.rc_recovery)
        k.Campaign.trials k.Campaign.success k.Campaign.failed
        k.Campaign.crashed k.Campaign.recovered (Campaign.sdc_rate k)
        (Campaign.crash_rate k) (Campaign.recovered_rate k))
    r.re_cells;
  (* the headline pairing: how much crash rate does rollback buy, per
     fault model and execution mode *)
  (match r.re_cells with
  | [] -> ()
  | _ ->
      Fmt.pf ppf "@,crash-rate delta (rollback vs none):@,";
      List.iter
        (fun mode ->
          List.iter
            (fun model ->
              let none =
                find_cell r ~mode ~model ~recovery:Campaign.No_recovery
              in
              let rb =
                List.find_opt
                  (fun c ->
                    c.rc_mode = mode && c.rc_model = model
                    && c.rc_recovery <> Campaign.No_recovery)
                  r.re_cells
              in
              match (none, rb) with
              | Some n, Some b ->
                  Fmt.pf ppf "  %-8s %-15s %8.4f -> %8.4f (%+.4f)@,"
                    (mode_to_string mode)
                    (Fault_model.to_string model)
                    (Campaign.crash_rate n.rc_counts)
                    (Campaign.crash_rate b.rc_counts)
                    (Campaign.crash_rate b.rc_counts
                    -. Campaign.crash_rate n.rc_counts)
              | _ -> ())
            (List.sort_uniq compare
               (List.map (fun c -> c.rc_model) r.re_cells)))
        [ Serial; Mpi r.re_size ]);
  (match r.re_messages with
  | [] -> ()
  | ms ->
      Fmt.pf ppf
        "@,message faults at %s (p=0.25 per send; raw vs reliable):@,"
        (mode_to_string (Mpi r.re_size));
      Fmt.pf ppf "%-11s %-9s %6s %6s %6s %6s %6s  %9s %7s@," "kind"
        "transport" "trials" "benign" "SDC" "crash" "recov" "injected"
        "resent";
      List.iter
        (fun m ->
          let k = m.rm_counts in
          Fmt.pf ppf "%-11s %-9s %6d %6d %6d %6d %6d  %9d %7d@," m.rm_kind
            (if m.rm_reliable then "reliable" else "raw")
            k.Campaign.trials k.Campaign.success k.Campaign.failed
            k.Campaign.crashed k.Campaign.recovered m.rm_injected m.rm_resent)
        ms);
  Fmt.pf ppf "@]"

let to_csv (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "app,section,mode,model,recovery,transport,trials,success,failed,crashed,recovered,sdc_rate,crash_rate,recovered_rate,injected,resent\n";
  List.iter
    (fun c ->
      let k = c.rc_counts in
      Buffer.add_string b
        (Printf.sprintf "%s,vm,%s,%s,%s,,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,,\n"
           r.re_app
           (mode_to_string c.rc_mode)
           (Fault_model.to_string c.rc_model)
           (Campaign.recovery_to_string c.rc_recovery)
           k.Campaign.trials k.Campaign.success k.Campaign.failed
           k.Campaign.crashed k.Campaign.recovered (Campaign.sdc_rate k)
           (Campaign.crash_rate k) (Campaign.recovered_rate k)))
    r.re_cells;
  List.iter
    (fun m ->
      let k = m.rm_counts in
      Buffer.add_string b
        (Printf.sprintf
           "%s,message,%s,,%s,%s,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%d,%d\n"
           r.re_app
           (mode_to_string (Mpi r.re_size))
           m.rm_kind
           (if m.rm_reliable then "reliable" else "raw")
           k.Campaign.trials k.Campaign.success k.Campaign.failed
           k.Campaign.crashed k.Campaign.recovered (Campaign.sdc_rate k)
           (Campaign.crash_rate k) (Campaign.recovered_rate k) m.rm_injected
           m.rm_resent))
    r.re_messages;
  Buffer.contents b
