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

open Gen_prog

(* --- the differential property ------------------------------------------- *)

let is_float v = List.mem v fvars

let run_both (stmts : Ast.stmt list) : (string * Value.t * Value.t) list =
  let prog = program_of stmts in
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

(* --- interpreter = compiled backend under faults ---------------------------- *)

(* every model's corruption of a written value at a random seq and of a
   memory word just before a random load of it (or, for a program
   without loads, any word at any seq): both backends must give the
   same outcome, output, memory, instruction and iteration counts.  The
   compiled runs start from, and compare against, clean snapshots *)
let prop_faulty_backends_agree =
  QCheck.Test.make ~count:60
    ~name:"interp = compiled under random write and memory corruptions"
    (QCheck.make
       ~print:(fun (stmts, seed) ->
         Printf.sprintf "<%d statements, seed %d>" (List.length stmts) seed)
       QCheck.Gen.(pair gen_program nat))
    (fun (stmts, seed) ->
      let prog, iter_mark = observed_program stmts in
      let clean, trace = Machine.run_traced ~iter_mark prog in
      let n = clean.Machine.instructions in
      let loads = loads trace in
      let plan = Compiled.plan_for prog in
      let rng = Rng.create ~seed in
      let base = { Machine.default_config with iter_mark; budget = 20 * n } in
      let agree fault =
        let cfg = { base with fault = Some fault } in
        let ri = Machine.run prog cfg and rc = Compiled.run plan cfg in
        ri.Machine.outcome = rc.Machine.outcome
        && String.equal ri.Machine.output rc.Machine.output
        && Machine.mem_equal ri.Machine.mem rc.Machine.mem
        && ri.Machine.instructions = rc.Machine.instructions
        && ri.Machine.iterations = rc.Machine.iterations
      in
      (* the compiled runs restore from, and compare with, at least two
         snapshots past seq 0 *)
      Array.length (Compiled.checkpoint_seqs plan base) >= 3
      && List.for_all
           (fun model ->
             let corruption =
               Fault_model.sample model rng ~bits:(1 + Rng.int rng 64)
             in
             let seq = Rng.int rng n in
             let mseq, addr =
               if Array.length loads = 0 then
                 (seq, Rng.int rng prog.Prog.mem_size)
               else Rng.choose rng loads
             in
             agree (Machine.Write { seq; corruption })
             && agree (Machine.Mem { seq = mseq; addr; corruption }))
           (Array.to_list models))

let suite =
  ( "differential",
    [
      Alcotest.test_case "fixed program" `Quick test_fixed_program;
      QCheck_alcotest.to_alcotest prop_differential;
      QCheck_alcotest.to_alcotest prop_faulty_backends_agree;
    ] )
