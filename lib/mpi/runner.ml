(** Parallel execution of an IR program across simulated MPI ranks.

    Each rank runs the program in its own VM on its own OCaml domain,
    wired to the shared {!Comm} runtime.  Used by the Figure-4
    experiment (per-process tracing overhead at scale), the MPI demo
    programs, and the message-fault campaigns of [Recovery_eval].

    Fault tolerance: a rank whose VM raises [Comm_error] (a dropped
    message timing out, a dead peer) does not strand the bundle — it
    poisons the communicator so blocked peers abort promptly, and the
    bundle records the failure per rank.  {!classify} folds a bundle
    into the campaign outcome taxonomy. *)

type rank_result = {
  rank : int;
  result : Machine.result;
  trace_len : int;  (** 0 when tracing was off *)
  failure : string option;
      (** a communication failure that killed this rank ([result] is
          then a synthesized [Trapped]) *)
}

type bundle = {
  results : rank_result array;
  wall_seconds : float;
  recorded : (int * int * int) list;  (** receive order, if recording *)
  comm_stats : Comm.stats;  (** transport counters (faults, resends) *)
}

(** Run [prog] on [size] ranks.  [traced] turns per-rank instruction
    tracing on (traces are measured and discarded — the Figure 4
    experiment needs the cost, not the artifact).  [record] records the
    message receive order; [replay] enforces a previously recorded
    order.

    [faults]/[reliable]/[recv_timeout_s] configure the {!Comm} layer;
    [fault] injects a VM fault into one rank ([(rank, fault)]);
    [recover] arms checkpoint/rollback on every rank; [budget] bounds
    each rank's dynamic instructions.

    [max_live] bounds how many rank domains run at once.  It is only
    safe for programs whose ranks do not communicate (rank-replicated
    computation, as in the Figure 4 harness): a communicating program
    would deadlock waiting for an unspawned peer.  It keeps at most
    [max_live] in-memory traces alive at a time. *)
let run ?(traced = false) ?(record = false) ?max_live
    ?(replay : (int * int * int) array option) ?faults ?(reliable = false)
    ?recv_timeout_s ?(fault : (int * Machine.fault) option)
    ?(recover : Machine.recover option) ?budget ~(size : int) (prog : Prog.t) :
    bundle =
  let mode =
    match replay with
    | Some order -> Comm.Replay { order; next = 0 }
    | None -> if record then Comm.Record (ref []) else Comm.Free
  in
  let comm = Comm.create ~mode ?faults ~reliable ?recv_timeout_s ~size () in
  let t0 = Unix.gettimeofday () in
  let run_rank rank () =
    (* per-rank tracing streams events through a sink (the analog of
       LLVM-Tracer writing a per-process file) rather than retaining
       them: Figure 4 measures the instrumentation cost, not the
       artifact *)
    let events = ref 0 in
    let sink = if traced then Some (fun (_ : Trace.cursor) -> incr events) else None in
    let rank_fault =
      match fault with
      | Some (r, f) when r = rank -> Some f
      | Some _ | None -> None
    in
    let cfg =
      {
        Machine.default_config with
        sink;
        fault = rank_fault;
        recover;
        budget =
          (match budget with
          | Some b -> b
          | None -> Machine.default_config.Machine.budget);
        mpi = Some (Comm.hooks comm ~rank);
      }
    in
    match Machine.run prog cfg with
    | result ->
        (* a rank that dies of a VM trap (or exhausts its budget) must
           also poison the communicator: its peers may be blocked in
           [recv]/[allreduce] waiting for a message that will never
           come, and burning the full recv timeout per dead peer would
           make crash-heavy campaigns quadratically slow *)
        (match result.Machine.outcome with
        | Machine.Finished -> ()
        | Machine.Trapped m -> Comm.poison comm ~rank ("rank died: " ^ m)
        | Machine.Budget_exceeded ->
            Comm.poison comm ~rank "rank died: instruction budget exceeded");
        { rank; result; trace_len = !events; failure = None }
    | exception Comm.Comm_error { reason; peer; tag; _ } ->
        (* take the peers down with us promptly, then report the rank
           as crashed with a synthesized result *)
        let why =
          Printf.sprintf "comm failure (peer %d, tag %d): %s" peer tag reason
        in
        Comm.poison comm ~rank why;
        {
          rank;
          result =
            {
              Machine.outcome = Machine.Trapped why;
              instructions = 0;
              output = "";
              mem = Machine.mem_of_array [||];
              iterations = 0;
              restores = 0;
            };
          trace_len = !events;
          failure = Some why;
        }
  in
  let results =
    if size = 1 then [| run_rank 0 () |]
    else begin
      match max_live with
      | None ->
          let domains =
            Array.init size (fun rank -> Domain.spawn (run_rank rank))
          in
          Array.map Domain.join domains
      | Some cap ->
          let cap = max 1 cap in
          let out = Array.make size None in
          let rank = ref 0 in
          while !rank < size do
            let wave = min cap (size - !rank) in
            let base = !rank in
            let domains =
              Array.init wave (fun k -> Domain.spawn (run_rank (base + k)))
            in
            Array.iteri (fun k d -> out.(base + k) <- Some (Domain.join d)) domains;
            rank := base + wave
          done;
          Array.map (function Some r -> r | None -> assert false) out
    end
  in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  {
    results;
    wall_seconds;
    recorded = Comm.recorded_order comm;
    comm_stats = Comm.stats comm;
  }

(** Fold a bundle into the campaign outcome taxonomy.  [verify] judges
    each rank's finished result.  Any rank crash (trap, hang, comm
    failure) makes the bundle Crashed; any verification failure makes
    it Failed (SDC); a bundle that is correct everywhere but needed the
    recovery machinery — checkpoint restores or message resends — is
    Recovered; otherwise Success. *)
let classify ~(verify : Machine.result -> bool) (b : bundle) :
    Campaign.outcome_class =
  let crashed =
    Array.exists
      (fun (r : rank_result) ->
        match r.result.Machine.outcome with
        | Machine.Finished -> false
        | Machine.Trapped _ | Machine.Budget_exceeded -> true)
      b.results
  in
  if crashed then Campaign.Crashed
  else if
    Array.exists (fun (r : rank_result) -> not (verify r.result)) b.results
  then Campaign.Failed
  else if
    b.comm_stats.Comm.resent > 0
    || Array.exists (fun (r : rank_result) -> r.result.Machine.restores > 0) b.results
  then Campaign.Recovered
  else Campaign.Success
