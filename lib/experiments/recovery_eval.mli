(** Paired recovery campaigns: the same application under every fault
    model x recovery policy, serially and across simulated MPI ranks,
    plus a message-fault section comparing the raw and reliable
    transports.

    All cells of one report share the program (the ring-exchange
    wrapped build, serial-identical to the original), the fault-site
    population (from one fault-free traced run), and the per-trial RNG
    streams: trial [i] of every cell draws from
    [Rng.derive ~seed ~index:i], and site selection is the stream's
    first draws — shared by all fault models — so a given trial
    corrupts the same dynamic site under every model and policy.  The
    deltas between cells are therefore model/policy effects, not
    sampling noise. *)

type mode = Serial | Mpi of int  (** [Mpi n] = an [n]-rank bundle *)

val mode_to_string : mode -> string

type cell = {
  rc_mode : mode;
  rc_model : Fault_model.t;
  rc_recovery : Campaign.recovery;
  rc_counts : Campaign.counts;
}

(** Transport-fault cells: no VM fault; the channel drops, corrupts, or
    duplicates payloads and the bundle outcome shows whether the
    reliable transport (checksums + receiver-driven resend) recovers
    what the raw transport cannot. *)
type message_cell = {
  rm_kind : string;  (** "drop", "corrupt", "duplicate" *)
  rm_reliable : bool;
  rm_counts : Campaign.counts;
  rm_injected : int;  (** transport faults actually applied, summed *)
  rm_resent : int;  (** retransmissions, summed (reliable only) *)
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

val default_models : Fault_model.t list
(** single-bit, double-adjacent, burst-8, stuck-at. *)

val default_policies : Campaign.recovery list
(** no recovery, rollback with a 3-restore budget. *)

val wrapped_program : App.t -> Prog.t
(** The app's baked program with the {!Mpi_wrap.ring_exchange} epilogue
    (and the app's own transform, if any) — the one program every cell
    of a report runs, serial-identical to [App.program]. *)

val evaluate :
  ?seed:int ->
  ?models:Fault_model.t list ->
  ?policies:Campaign.recovery list ->
  ?size:int ->
  ?serial_trials:int ->
  ?mpi_trials:int ->
  ?msg_trials:int ->
  ?recv_timeout_s:float ->
  App.t ->
  report
(** Run the full grid.  Serial cells go through the resilient campaign
    executor; MPI cells inject each trial's sampled fault into one rank
    of a [size]-rank bundle and classify the bundle with
    {!Runner.classify}.  @raise Invalid_argument if the app's
    fault-free wrapped run does not finish. *)

val find_cell :
  report ->
  mode:mode ->
  model:Fault_model.t ->
  recovery:Campaign.recovery ->
  cell option

val pp_report : Format.formatter -> report -> unit
(** The grid, a paired crash-rate-delta section (rollback vs none per
    model and mode), and the message-fault table. *)

val to_csv : report -> string
