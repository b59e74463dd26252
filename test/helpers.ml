(* Shared mini-programs and utilities for the test suites. *)

let compile = Compile.compile

(* single main function with the given locals and body *)
let main_program ?(globals = []) ?(funs = []) ?(locals = []) body : Ast.program
    =
  {
    Ast.globals;
    funs =
      funs
      @ [ { Ast.fname = "main"; params = []; ret = None; locals; body } ];
    entry = "main";
  }

let run ?fault ?trace ?(iter_mark = -1) ?(budget = 10_000_000) prog =
  Machine.run prog
    { Machine.default_config with fault; trace; iter_mark; budget }

let run_traced ?fault ?(iter_mark = -1) prog =
  let t = Trace.create () in
  let r = run ?fault ~trace:t ~iter_mark prog in
  (r, t)

(* read a named global scalar out of a final memory image *)
let mem_scalar (prog : Prog.t) (r : Machine.result) name : Value.t =
  match Prog.find_symbol prog name with
  | Some s -> Machine.mem_get r.Machine.mem s.Prog.sym_addr
  | None -> Alcotest.failf "no symbol %s" name

let mem_float prog r name = Value.to_float (mem_scalar prog r name)
let mem_int prog r name = Value.to_int (mem_scalar prog r name)

let check_finished (r : Machine.result) =
  match r.Machine.outcome with
  | Machine.Finished -> ()
  | Machine.Trapped m -> Alcotest.failf "unexpected trap: %s" m
  | Machine.Budget_exceeded -> Alcotest.fail "unexpected budget exhaustion"

(* a program with two regions: region "produce" computes t = a+b into a
   temporary, region "consume" stores t*2 into out; used by the
   analysis tests *)
let two_region_program () : Ast.program =
  let open Ast in
  main_program
    ~globals:
      [
        DScalar ("a", Ty.F64);
        DScalar ("b", Ty.F64);
        DScalar ("t", Ty.F64);
        DScalar ("out", Ty.F64);
      ]
    [
      SAssign ("a", f 1.5);
      SAssign ("b", f 2.5);
      SRegion ("produce", 10, 20, [ SAssign ("t", v "a" + v "b") ]);
      SRegion ("consume", 30, 40, [ SAssign ("out", v "t" * f 2.0) ]);
      SPrint ("RESULT %.17g\n", [ v "out" ]);
    ]

(* a loop program with an iteration marker and one region per iteration *)
let loop_program ~(iters : int) : Ast.program =
  let open Ast in
  main_program
    ~globals:[ DScalar ("acc", Ty.F64) ]
    [
      SAssign ("acc", f 0.0);
      SFor
        ( "it",
          i 0,
          i iters,
          [
            SMark "main_iter";
            SRegion
              ("body", 1, 9, [ SAssign ("acc", v "acc" + to_float (v "it")) ]);
          ] );
      SPrint ("RESULT %.17g\n", [ v "acc" ]);
    ]
