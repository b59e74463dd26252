(* The generated mini-C programs the differential properties run: small
   straight-line, branching and counted-loop bodies over four integer
   and three float globals, with no traps and no calls. *)

let ivars = [ "a"; "b"; "c"; "d" ]
let fvars = [ "x"; "y"; "z" ]

let gen_iexpr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun k -> Ast.Int (Int64.of_int k)) (int_range (-100) 100);
               map (fun v -> Ast.Var v) (oneofl ivars);
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun k -> Ast.Int (Int64.of_int k)) (int_range (-100) 100);
               map (fun v -> Ast.Var v) (oneofl ivars);
               map3
                 (fun op a b -> Ast.Bin (op, a, b))
                 (oneofl
                    [
                      Ast.Add; Ast.Sub; Ast.Mul; Ast.AndB; Ast.OrB; Ast.XorB;
                      Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Min;
                      Ast.Max;
                    ])
                 sub sub;
               (* bounded shift amounts *)
               map2
                 (fun a k -> Ast.Bin (Ast.Shl, a, Ast.Int (Int64.of_int k)))
                 sub (int_range 0 8);
               map2
                 (fun a k -> Ast.Bin (Ast.Shr, a, Ast.Int (Int64.of_int k)))
                 sub (int_range 0 8);
               map (fun a -> Ast.Un (Ast.Neg, a)) sub;
               map (fun a -> Ast.Un (Ast.NotB, a)) sub;
               map (fun a -> Ast.Un (Ast.Trunc32, a)) sub;
             ])

let gen_fexpr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun x -> Ast.Flt (Float.of_int x /. 8.0)) (int_range (-64) 64);
               map (fun v -> Ast.Var v) (oneofl fvars);
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map (fun v -> Ast.Var v) (oneofl fvars);
               map3
                 (fun op a b -> Ast.Bin (op, a, b))
                 (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Min; Ast.Max ])
                 sub sub;
               map (fun a -> Ast.Un (Ast.Neg, a)) sub;
             ])

let gen_stmt : Ast.stmt QCheck.Gen.t =
  let open QCheck.Gen in
  let assign =
    oneof
      [
        map2 (fun v e -> Ast.SAssign (v, e)) (oneofl ivars) (gen_iexpr |> map Fun.id);
        map2 (fun v e -> Ast.SAssign (v, e)) (oneofl fvars) (gen_fexpr |> map Fun.id);
      ]
  in
  oneof
    [
      assign;
      (* a conditional over integer state *)
      map3
        (fun c a b -> Ast.SIf (c, [ a ], [ b ]))
        gen_iexpr assign assign;
      (* a small counted loop of assignments *)
      map2
        (fun k body -> Ast.SFor ("i", Ast.Int 0L, Ast.Int (Int64.of_int k), body))
        (int_range 1 4)
        (list_size (int_range 1 3) assign);
    ]

let gen_program : Ast.stmt list QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 1 12) gen_stmt)

let program_of (body : Ast.stmt list) : Prog.t =
  Compile.compile
    {
      Ast.globals =
        List.map (fun v -> Ast.DScalar (v, Ty.I64)) ivars
        @ List.map (fun v -> Ast.DScalar (v, Ty.F64)) fvars
        @ [ Ast.DScalar ("i", Ty.I64) ];
      funs = [ { Ast.fname = "main"; params = []; ret = None; locals = []; body } ];
      entry = "main";
    }


(* a generated program with a mark after each statement and a final
   print of every variable, so iteration counts and output can differ *)
let observed_program (stmts : Ast.stmt list) : Prog.t * int =
  let body =
    List.concat_map (fun s -> [ s; Ast.SMark "step" ]) stmts
    @ [
        Ast.SPrint
          ( "%d %d %d %d %.17g %.17g %.17g\n",
            List.map (fun v -> Ast.Var v) (ivars @ fvars) );
      ]
  in
  let prog = program_of body in
  (prog, Prog.mark_id prog "step")

(* the memory words the fault-free run loads, with the seq of each
   load: a memory fault at such a seq corrupts a value about to be read *)
let loads (trace : Trace.t) : (int * int) array =
  Trace.fold
    (fun acc (e : Trace.event) ->
      Array.fold_left
        (fun acc (loc, _) ->
          match loc with Loc.Mem a -> (e.Trace.seq, a) :: acc | Loc.Reg _ -> acc)
        acc e.Trace.reads)
    [] trace
  |> Array.of_list


(* the fault models the differential fault properties draw from *)
let models =
  [|
    Fault_model.Single_bit; Fault_model.Double_adjacent; Fault_model.Burst 4;
    Fault_model.Burst 64; Fault_model.Stuck_at;
  |]
