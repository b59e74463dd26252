(** The benchmark-application abstraction.

    Every benchmark is a mini-C program with
    {ul
    {- a main computation loop whose body starts with the
       ["main_iter"] marker;}
    {- code regions named like the paper's Table I (e.g. [cg_a]);}
    {- a [RESULT x] print of its headline value; and}
    {- an in-code {e verification phase}, like the NPB benchmarks': the
       computed result is compared against a reference value baked into
       the program, and [VERIFIED 1] or [VERIFIED 0] is printed.  The
       comparison itself is a conditional statement — which is exactly
       where the paper finds the Conditional Statement pattern in the
       verification phases of MG and CG.}}

    The reference value is obtained by a two-phase build: the program
    is first built without a verification phase and run fault-free; the
    headline result of that run is then baked into the full program as
    the verification constant (the NPB benchmarks hardcode their
    class-S reference values the same way). *)

type t = {
  name : string;
  description : string;
  build : ref_value:float option -> Ast.program;
      (** [ref_value = None] builds the calibration variant (no
          verification phase); [Some r] bakes [r] in as the reference *)
  tolerance : float;  (** relative epsilon of the verification phase *)
  main_iterations : int;  (** main-loop iterations the program performs *)
  region_names : string list;  (** paper-style region names, in order *)
  transform : (Prog.t -> Prog.t) option;
      (** post-compile IR rewrite applied to the full program (not the
          calibration variant); must preserve fault-free semantics *)
}

let iter_mark_name = "main_iter"

(** Parse the [RESULT x] line out of a run's output. *)
let parse_result (output : string) : float option =
  String.split_on_char '\n' output
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.length line > 7 && String.equal (String.sub line 0 6) "RESULT"
           ->
             Float.of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
         | Some _ | None -> None)

let verified (output : string) : bool =
  (* substring search for "VERIFIED 1" *)
  let needle = "VERIFIED 1" in
  let n = String.length output and m = String.length needle in
  let rec scan i =
    if i + m > n then false
    else if String.equal (String.sub output i m) needle then true
    else scan (i + 1)
  in
  scan 0

(* compiled programs and reference runs are cached per app *)
type baked = {
  prog : Prog.t;        (** full program, verification phase baked in *)
  ref_value : float;    (** the baked reference value *)
  reference : Machine.result;  (** fault-free run of [prog] *)
  iter_mark : int;
}

let cache : (string, baked) Hashtbl.t = Hashtbl.create 16

exception App_error of string

(** Compile the app with its verification phase baked in, run it
    fault-free, and cache everything. *)
let bake (app : t) : baked =
  match Hashtbl.find_opt cache app.name with
  | Some b -> b
  | None ->
      let calib_prog = Compile.compile (app.build ~ref_value:None) in
      let calib = Machine.run_plain calib_prog in
      (match calib.outcome with
      | Machine.Finished -> ()
      | Machine.Trapped m ->
          raise (App_error (Printf.sprintf "%s: calibration run trapped: %s" app.name m))
      | Machine.Budget_exceeded ->
          raise (App_error (app.name ^ ": calibration run exceeded budget")));
      let ref_value =
        match parse_result calib.output with
        | Some v -> v
        | None ->
            raise (App_error (app.name ^ ": calibration run printed no RESULT"))
      in
      let prog = Compile.compile (app.build ~ref_value:(Some ref_value)) in
      (* the calibration run stays untransformed: rewrites must preserve
         fault-free semantics, so the reference value is the same either
         way — and the reference run below checks exactly that *)
      let prog =
        match app.transform with None -> prog | Some t -> t prog
      in
      let iter_mark = Prog.mark_id prog iter_mark_name in
      let reference =
        Machine.run prog { Machine.default_config with iter_mark }
      in
      (match reference.outcome with
      | Machine.Finished -> ()
      | Machine.Trapped m ->
          raise (App_error (Printf.sprintf "%s: reference run trapped: %s" app.name m))
      | Machine.Budget_exceeded ->
          raise (App_error (app.name ^ ": reference run exceeded budget")));
      if not (verified reference.output) then
        raise (App_error (app.name ^ ": reference run failed its own verification"));
      let b = { prog; ref_value; reference; iter_mark } in
      Hashtbl.replace cache app.name b;
      b

let program (app : t) : Prog.t = (bake app).prog
let reference (app : t) : Machine.result = (bake app).reference
let reference_value (app : t) : float = (bake app).ref_value
let iter_mark (app : t) : int = (bake app).iter_mark

(** The verification predicate used by fault-injection campaigns: a
    finished run is a Verification Success iff the program's own
    verification phase accepted the result. *)
let verify (_app : t) : Machine.result -> bool =
 fun (r : Machine.result) -> verified r.output

(** Fault-free traced run (with iteration marking). *)
let trace (app : t) : Machine.result * Trace.t =
  let b = bake app in
  let t = Trace.create () in
  let r =
    Machine.run b.prog
      { Machine.default_config with trace = Some t; iter_mark = b.iter_mark }
  in
  (r, t)

(* one faulty run, its events retained in [trace] or streamed to [sink] *)
let run_with_fault (app : t) (fault : Machine.fault) ~budget ~trace ~sink =
  let b = bake app in
  Machine.run b.prog
    {
      Machine.default_config with
      trace;
      sink;
      iter_mark = b.iter_mark;
      fault = Some fault;
      budget;
    }

(** Faulty traced run. *)
let trace_with_fault (app : t) (fault : Machine.fault) ~(budget : int) :
    Machine.result * Trace.t =
  let t = Trace.create () in
  (run_with_fault app fault ~budget ~trace:(Some t) ~sink:None, t)

(** Faulty run streaming its events into [sink], keeping none. *)
let replay_with_fault (app : t) (fault : Machine.fault) ~(budget : int)
    (sink : Trace.event -> unit) : Machine.result =
  run_with_fault app fault ~budget ~trace:None ~sink:(Some sink)

(* --- shared program-construction helpers ------------------------------ *)

(** The in-code verification phase: prints the headline result at full
    precision and compares it to the baked reference with a relative
    epsilon (a conditional-statement pattern, like NPB verification). *)
let verification_block ?(result_var = "result") ~(ref_value : float option)
    ~(tolerance : float) () : Ast.stmt list =
  let bound_of r =
    if Stdlib.( > ) (Float.abs r) 0.0 then Float.abs r *. tolerance
    else tolerance
  in
  let open Ast in
  SPrint ("RESULT %.17g\n", [ v result_var ])
  ::
  (match ref_value with
  | None -> []
  | Some r ->
      let bound = bound_of r in
      [
        SAssign ("verif_err", Bin (Sub, v result_var, f r));
        SIf
          ( Bin (Le, abs_ (v "verif_err"), f bound),
            [ SPrint ("VERIFIED %d\n", [ i 1 ]) ],
            [ SPrint ("VERIFIED %d\n", [ i 0 ]) ] );
      ])

(** Locals needed by {!verification_block}. *)
let verification_locals : Ast.decl list =
  [ Ast.DScalar ("result", Ty.F64); Ast.DScalar ("verif_err", Ty.F64) ]
