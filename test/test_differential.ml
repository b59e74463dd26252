(* Differential testing of the compiler + VM pipeline: generate random
   mini-C programs over a trap-free subset of the language, evaluate
   them with a direct OCaml interpreter of the AST, and require the
   compiled program's final memory to match bit for bit. *)

(* --- a reference interpreter for the generated subset ------------------- *)

type env = (string, Value.t) Hashtbl.t

let rec eval_expr (env : env) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int n -> n
  | Ast.Flt x -> Value.of_float x
  | Ast.Var v -> ( match Hashtbl.find_opt env v with Some x -> x | None -> 0L)
  | Ast.Bin (op, a, b) -> eval_bin env op a b
  | Ast.Un (op, a) -> eval_un env op a
  | Ast.Idx _ | Ast.CallE _ | Ast.Randlc _ | Ast.MpiRank | Ast.MpiSize
  | Ast.MpiRecv _ | Ast.MpiAllreduce _ ->
      failwith "outside the generated subset"

and eval_bin env op a b =
  let va = eval_expr env a and vb = eval_expr env b in
  let fop g = Value.of_float (g (Value.to_float va) (Value.to_float vb)) in
  let is_float =
    (* the generator keeps both operand types equal; floats are tagged
       by construction below *)
    match (a, b) with
    | (Ast.Flt _, _ | _, Ast.Flt _) -> true
    | _ -> false
  in
  ignore is_float;
  match op with
  | Ast.Add -> Int64.add va vb
  | Ast.Sub -> Int64.sub va vb
  | Ast.Mul -> Int64.mul va vb
  | Ast.AndB -> Int64.logand va vb
  | Ast.OrB -> Int64.logor va vb
  | Ast.XorB -> Int64.logxor va vb
  | Ast.Shl -> Int64.shift_left va (Int64.to_int vb land 63)
  | Ast.Shr -> Int64.shift_right va (Int64.to_int vb land 63)
  | Ast.Eq -> Value.truth (Int64.equal va vb)
  | Ast.Ne -> Value.truth (not (Int64.equal va vb))
  | Ast.Lt -> Value.truth (Int64.compare va vb < 0)
  | Ast.Le -> Value.truth (Int64.compare va vb <= 0)
  | Ast.Gt -> Value.truth (Int64.compare va vb > 0)
  | Ast.Ge -> Value.truth (Int64.compare va vb >= 0)
  | Ast.Min -> if Int64.compare va vb <= 0 then va else vb
  | Ast.Max -> if Int64.compare va vb >= 0 then va else vb
  | Ast.Div | Ast.Rem -> ignore fop; failwith "generator avoids division"

and eval_un env op a =
  let va = eval_expr env a in
  match op with
  | Ast.Neg -> Int64.neg va
  | Ast.NotB -> Int64.lognot va
  | Ast.Trunc32 -> Int64.shift_right (Int64.shift_left va 32) 32
  | Ast.ToFloat -> Value.of_float (Int64.to_float va)
  | Ast.Sqrt | Ast.Abs | Ast.Sin | Ast.Cos | Ast.ToInt | Ast.F32 ->
      failwith "outside the integer subset"

(* float expressions are evaluated separately, over float variables *)
let rec eval_fexpr (env : env) (e : Ast.expr) : float =
  match e with
  | Ast.Flt x -> x
  | Ast.Var v -> (
      match Hashtbl.find_opt env v with
      | Some x -> Value.to_float x
      | None -> 0.0)
  | Ast.Bin (Ast.Add, a, b) -> eval_fexpr env a +. eval_fexpr env b
  | Ast.Bin (Ast.Sub, a, b) -> eval_fexpr env a -. eval_fexpr env b
  | Ast.Bin (Ast.Mul, a, b) -> eval_fexpr env a *. eval_fexpr env b
  | Ast.Bin (Ast.Min, a, b) -> Float.min (eval_fexpr env a) (eval_fexpr env b)
  | Ast.Bin (Ast.Max, a, b) -> Float.max (eval_fexpr env a) (eval_fexpr env b)
  | Ast.Un (Ast.Neg, a) -> -.eval_fexpr env a
  | _ -> failwith "outside the float subset"

let rec eval_stmt (env : env) (s : Ast.stmt) ~(is_float : string -> bool) :
    unit =
  match s with
  | Ast.SAssign (v, e) ->
      let value =
        if is_float v then Value.of_float (eval_fexpr env e)
        else eval_expr env e
      in
      Hashtbl.replace env v value
  | Ast.SIf (c, bt, bf) ->
      if Value.is_true (eval_expr env c) then
        List.iter (eval_stmt env ~is_float) bt
      else List.iter (eval_stmt env ~is_float) bf
  | Ast.SFor (v, lo, hi, body) ->
      let lo = Value.to_int (eval_expr env lo) in
      let rec loop k =
        Hashtbl.replace env v (Value.of_int k);
        (* C-style: the bound re-evaluates each iteration, but the
           generator only emits constant bounds *)
        let hi = Value.to_int (eval_expr env hi) in
        if k < hi then begin
          List.iter (eval_stmt env ~is_float) body;
          (* the compiled loop increments the stored variable *)
          let cur = Value.to_int (Hashtbl.find env v) in
          loop (cur + 1)
        end
      in
      loop lo
  | _ -> failwith "outside the generated subset"

(* --- the generator -------------------------------------------------------- *)

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

(* --- the differential property ------------------------------------------- *)

let is_float v = List.mem v fvars

let run_both (stmts : Ast.stmt list) : (string * Value.t * Value.t) list =
  let prog_ast : Ast.program =
    {
      Ast.globals =
        List.map (fun v -> Ast.DScalar (v, Ty.I64)) ivars
        @ List.map (fun v -> Ast.DScalar (v, Ty.F64)) fvars
        @ [ Ast.DScalar ("i", Ty.I64) ];
      funs =
        [ { Ast.fname = "main"; params = []; ret = None; locals = []; body = stmts } ];
      entry = "main";
    }
  in
  let prog = Compile.compile prog_ast in
  let r = Machine.run_plain ~budget:5_000_000 prog in
  (match r.Machine.outcome with
  | Machine.Finished -> ()
  | Machine.Trapped m -> failwith ("vm trapped on trap-free subset: " ^ m)
  | Machine.Budget_exceeded -> failwith "vm hung on bounded program");
  let env : env = Hashtbl.create 16 in
  List.iter (eval_stmt env ~is_float) stmts;
  List.map
    (fun v ->
      let vm_value =
        match Prog.find_symbol prog v with
        | Some s -> Machine.mem_get r.Machine.mem s.Prog.sym_addr
        | None -> 0L
      in
      let ref_value =
        match Hashtbl.find_opt env v with Some x -> x | None -> 0L
      in
      (v, vm_value, ref_value))
    (ivars @ fvars)

let prop_differential =
  QCheck.Test.make ~count:400 ~name:"compiled = interpreted on random programs"
    (QCheck.make ~print:(fun stmts ->
         Printf.sprintf "<%d statements>" (List.length stmts))
       gen_program)
    (fun stmts ->
      List.for_all
        (fun (_, vm_value, ref_value) -> Int64.equal vm_value ref_value)
        (run_both stmts))

(* a fixed regression program exercising every generated construct *)
let test_fixed_program () =
  let open Ast in
  let stmts =
    [
      SAssign ("a", i 7);
      SAssign ("b", (v "a" << i 3) ^| i 0x55);
      SFor ("i", i 0, i 3, [ SAssign ("c", v "c" + v "b" + v "i") ]);
      SIf (v "c" > i 100, [ SAssign ("d", neg (v "c")) ], [ SAssign ("d", trunc32 (v "c")) ]);
      SAssign ("x", f 1.5);
      SAssign ("y", (v "x" * f 4.0) - f 0.25);
      SAssign ("z", Bin (Max, v "x", v "y"));
    ]
  in
  List.iter
    (fun (name, vm_value, ref_value) ->
      Alcotest.(check int64) name ref_value vm_value)
    (run_both stmts)

let suite =
  ( "differential",
    [
      Alcotest.test_case "fixed program" `Quick test_fixed_program;
      QCheck_alcotest.to_alcotest prop_differential;
    ] )
