(** The FlipTracker virtual machine: an IR interpreter with optional
    instruction tracing (the LLVM-Tracer substitute), fault hooks that
    corrupt one written value or memory word (the FlipIt substitute),
    MPI hooks, and the crash model of the paper's fault-manifestation
    taxonomy. *)

type corruption = { and_mask : int64; or_mask : int64; xor_mask : int64 }
(** What a fault does to its target datum [v]:
    [((v land and_mask) lor or_mask) lxor xor_mask].  A single-bit
    flip is [xor_mask = 1 lsl b]; multi-bit upsets set more xor bits,
    stuck-at-0 clears an [and_mask] bit and stuck-at-1 sets an
    [or_mask] bit. *)

val flip : int -> corruption
(** [flip b] flips bit [b] (0 = least significant).
    @raise Invalid_argument unless [0 <= b <= 63]. *)

val corrupt : corruption -> int64 -> int64
(** Apply a corruption to a value. *)

val flipped_bit : corruption -> int option
(** [Some b] when the corruption is [flip b], else [None]. *)

type fault =
  | Write of { seq : int; corruption : corruption }
      (** corrupt the value written by dynamic instruction [seq] *)
  | Mem of { seq : int; addr : int; corruption : corruption }
      (** corrupt [mem.(addr)] just before instruction [seq] runs
          (region-entry input injections) *)
  | Cache_fault of {
      seq : int;
      geom : Cache_model.geometry;
      loc : Cache_model.loc;
      corruption : corruption;
    }
      (** corrupt one cache metadata field (tag/valid/dirty) or data
          word just before instruction [seq] runs.  Arming this fault
          routes every memory access through a write-back
          {!Cache_model.t} of [geom]; the cache is transparent until
          the corruption fires, so the pre-fault execution matches an
          uncached run exactly.  Interpreter-only: the compiled backend
          reports these configs unsupported and [Backend] falls back. *)

val fault_to_string : fault -> string
(** Human-readable one-line description of a fault (for reports): a
    [Write] or [Mem] fault whose corruption is a {!flip} reads
    "flip bit [b] ...", any other corruption prints its masks. *)

type outcome =
  | Finished
  | Trapped of string  (** segfault, arithmetic trap, stack overflow *)
  | Budget_exceeded    (** hang, detected by the instruction budget *)

type recover = {
  max_restores : int;
      (** rollbacks allowed before the trap is allowed to escape *)
  snapshot_interval : int;
      (** minimum dynamic instructions between two snapshots: bounds
          the full-copy checkpoint cost on region-dense programs *)
}

val default_recover : recover
(** 3 restores, 50k-instruction snapshot interval. *)

type mpi_hooks = {
  rank : int;
  size : int;
  send : dest:int -> tag:int -> Value.t -> unit;
  recv : src:int -> tag:int -> Value.t;
  allreduce_sum : Value.t -> Value.t;
  barrier : unit -> unit;
}

type config = {
  budget : int;  (** max dynamic instructions before declaring a hang *)
  fault : fault option;
  sink : (Trace.cursor -> unit) option;
      (** the one event output: each event is passed to the callback,
          like a tracer writing to a file ({!run_traced} keeps them in
          a {!Trace.t}).  The run fills one {!Trace.cursor} and passes
          that same cursor for every event, so the cursor and its
          arrays are valid only during the callback: a sink that keeps
          an event copies it ({!Trace.push}, {!Trace.event_of_cursor}).
          Filling the cursor allocates nothing.  An exception the sink
          raises stops the run and propagates out of [run]
          unclassified (it is not a trap), which is how a consumer ends
          a replay early *)
  iter_mark : int;  (** mark id delimiting main-loop iterations, or -1 *)
  mpi : mpi_hooks option;
  recover : recover option;
      (** checkpoint/rollback: snapshot the entry frame at region
          boundaries (rate-limited by [snapshot_interval]); a trap
          escaping to the entry frame restores the last snapshot
          instead of crashing, up to [max_restores] times.  The dynamic
          instruction counter is {e not} rolled back, so a seq-keyed
          transient fault never re-fires on replay; [Budget] is never
          caught — rollback recovers traps, not hangs. *)
}

val default_config : config
(** No fault, no tracing, no MPI, no recovery, a 5e8-instruction
    budget. *)

type mem
(** A read-only view of a run's final memory image.

    The interpreter's view wraps the image it allocated for the run
    and stays valid forever.  The compiled backend's view is the live
    memory buffer of the domain that ran the trial, which that domain
    resets and reuses for its next compiled run: the view is valid
    until then.  Read it, or copy it with {!mem_to_array}, before the
    same domain runs another compiled trial.  Every reader below
    raises [Invalid_argument] on a stale view; none ever returns
    another trial's memory. *)

val mem_length : mem -> int
(** The program's [mem_size]. *)

val mem_get : mem -> int -> int64
(** [mem_get m a] is word [a].
    @raise Invalid_argument if [a] is out of range or [m] is stale. *)

val mem_equal : mem -> mem -> bool
(** Same length and the same word at every address. *)

val mem_to_array : mem -> int64 array
(** A fresh copy that outlives the view. *)

val mem_of_array : int64 array -> mem
(** A view of an image the caller owns (a synthesized result). *)

val live_mem :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  len:int ->
  runs:int Atomic.t ->
  mem
(** [live_mem buf ~len ~runs] views the first [len] words of a buffer
    its owner reuses, valid while [runs] keeps the value it has now.
    The owner must advance [runs] before it writes the buffer again.
    Exposed for alternative execution backends. *)

type result = {
  outcome : outcome;
  instructions : int;
  output : string;     (** accumulated formatted prints *)
  mem : mem;           (** final memory image (see {!mem}) *)
  iterations : int;    (** main-loop iterations observed *)
  restores : int;      (** checkpoint rollbacks taken (0 without [recover]) *)
}

exception Budget
(** Raised internally when the instruction budget is exhausted;
    exposed so alternative execution backends (the compiled backend)
    can classify it exactly like the interpreter does. *)

exception Vm_trap of string
(** Raised internally on memory traps, stack overflow, and bad
    intrinsic usage; exposed for alternative execution backends. *)

val max_call_depth : int
(** Call depth above which the VM reports a stack overflow. *)

val randlc_step : float -> float -> float * float
(** One step of the NPB 46-bit linear congruential generator:
    [(new_state, uniform_in_0_1)]. *)

val format_output : string -> Value.t list -> string
(** Render a C-style format ([%d %x %e %f %g] with flags/width/
    precision).  Limited-precision float formats are where the Data
    Truncation pattern manifests on output. *)

val run : Prog.t -> config -> result
(** Execute the program.  Never raises on faulty behavior: traps,
    hangs, and wild accesses are classified in [outcome]. *)

val run_plain : ?budget:int -> Prog.t -> result
(** Fault-free, untraced execution. *)

val run_sink :
  ?budget:int ->
  ?iter_mark:int ->
  ?fault:fault ->
  sink:(Trace.cursor -> unit) ->
  Prog.t ->
  result
(** Execution passing each event to [sink] without retaining it. *)

val run_traced :
  ?budget:int ->
  ?iter_mark:int ->
  ?fault:fault ->
  Prog.t ->
  result * Trace.t
(** [run_sink] into a fresh trace that keeps every event, trimmed
    ({!Trace.trim}) once the run ends. *)
