(** The benchmark-application abstraction: a mini-C program with named
    code regions, a main-loop iteration marker, a [RESULT x] print, and
    an NPB-style in-code verification phase whose reference value is
    baked in by a two-phase build (calibration run, then rebuild with
    the measured reference as the verification constant). *)

type t = {
  name : string;
  description : string;
  build : ref_value:float option -> Ast.program;
      (** [None] builds the calibration variant (no verification);
          [Some r] bakes [r] in as the reference value *)
  tolerance : float;  (** relative epsilon of the verification phase *)
  main_iterations : int;
  region_names : string list;  (** paper-style names, in region order *)
  transform : (Prog.t -> Prog.t) option;
      (** post-compile IR rewrite (e.g. an automatic-hardening
          pipeline), applied to the full program after the reference
          value is baked in.  Must preserve fault-free semantics: the
          transformed program is the one run as the reference, so it
          must still print the same RESULT and verify against the baked
          constant. *)
}

val iter_mark_name : string
(** The marker every app places at the top of its main-loop body. *)

exception App_error of string
(** Raised when an app fails its own calibration or reference run. *)

val parse_result : string -> float option
(** The [RESULT x] line of a run's output. *)

val verified : string -> bool
(** Did the output contain [VERIFIED 1]? *)

val program : t -> Prog.t
(** The compiled program with its verification phase baked in (cached;
    the first call runs the two-phase build). *)

val reference : t -> Machine.result
(** The cached fault-free run of {!program}. *)

val reference_value : t -> float
(** The headline value baked into the verification phase. *)

val iter_mark : t -> int

val verify : t -> Machine.result -> bool
(** The campaign predicate: a finished run is a Verification Success
    iff the program's own verification phase accepted it. *)

val trace : t -> Machine.result * Trace.t
(** Fault-free traced run with iteration marking. *)

val trace_with_fault : t -> Machine.fault -> budget:int -> Machine.result * Trace.t
(** Faulty traced run, its trace kept: the stored-trace reference the
    parity checks compare against.  Analyses replay the run instead
    ({!replay_with_fault}). *)

val replay_with_fault :
  t -> Machine.fault -> budget:int -> (Trace.event -> unit) -> Machine.result
(** The faulty run of [trace_with_fault] with each event passed to the
    sink instead of kept: the same events, the same result.  The VM is
    deterministic, so calling it again replays the run: the analyses
    take it as the producer of the faulty run ([Acl.analyze_replay]
    runs it once).  Exceptions the sink raises propagate. *)

val verification_block :
  ?result_var:string ->
  ref_value:float option ->
  tolerance:float ->
  unit ->
  Ast.stmt list
(** The shared in-code verification phase (a conditional-statement
    pattern, like NPB's): prints RESULT, compares against the baked
    reference, prints VERIFIED. *)

val verification_locals : Ast.decl list
(** Locals required by {!verification_block}. *)
