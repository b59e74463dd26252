(* Region extraction, the access index, alignment, and the DDDG. *)

open Helpers

(* --- regions ----------------------------------------------------------- *)

let test_region_instances_two_regions () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let insts = Region.instances t in
  Alcotest.(check int) "two instances" 2 (List.length insts);
  match insts with
  | [ a; b ] ->
      Alcotest.(check int) "first region" 0 a.Region.rid;
      Alcotest.(check int) "second region" 1 b.Region.rid;
      Alcotest.(check bool) "ordered" true (a.Region.hi <= b.Region.lo)
  | _ -> Alcotest.fail "expected exactly two instances"

let test_region_instances_per_iteration () =
  let prog = compile (loop_program ~iters:5) in
  let _, t = run_traced ~iter_mark:0 prog in
  let insts = Region.instances_of t 0 in
  Alcotest.(check int) "one instance per iteration" 5 (List.length insts);
  List.iteri
    (fun k (inst : Region.instance) ->
      Alcotest.(check int) "instance number" k inst.Region.number;
      Alcotest.(check int) "iteration stamp" k inst.Region.iter)
    insts

let test_find_instance () =
  let prog = compile (loop_program ~iters:5) in
  let _, t = run_traced prog in
  (match Region.find_instance t ~rid:0 ~number:3 with
  | Some i -> Alcotest.(check int) "number" 3 i.Region.number
  | None -> Alcotest.fail "instance 3 missing");
  Alcotest.(check bool) "absent instance" true
    (Region.find_instance t ~rid:0 ~number:99 = None)

let test_iteration_spans () =
  let prog = compile (loop_program ~iters:4) in
  let _, t = run_traced ~iter_mark:(Prog.mark_id prog "main_iter") prog in
  let spans = Region.iteration_spans t in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  (* spans are ordered, contiguous-ish, and non-empty *)
  List.iter
    (fun (_, (lo, hi)) -> Alcotest.(check bool) "non-empty" true (hi > lo))
    spans

(* --- access index -------------------------------------------------------- *)

(* a program with a clear liveness story:
     t is written, read once, then overwritten;
     dead is written and never read. *)
let liveness_program () =
  let open Ast in
  main_program
    ~globals:
      [ DScalar ("t", Ty.I64); DScalar ("dead", Ty.I64); DScalar ("r", Ty.I64) ]
    [
      SAssign ("t", i 1);
      SAssign ("dead", i 2);
      SAssign ("r", v "t" + i 10);
      SAssign ("t", i 3);
    ]

let addr_of prog name =
  match Prog.find_symbol prog name with
  | Some s -> Loc.Mem s.Prog.sym_addr
  | None -> Alcotest.failf "symbol %s" name

let test_fate_dies_after_read () =
  let prog = compile (liveness_program ()) in
  let _, t = run_traced prog in
  let access = Access.build t in
  let tloc = addr_of prog "t" in
  (* find the first write event of t *)
  let first_write = ref (-1) in
  Trace.iteri
    (fun k (e : Trace.event) ->
      if !first_write < 0
         && Array.exists (fun (l, _) -> Loc.equal l tloc) e.writes
      then first_write := k)
    t;
  match Access.fate access tloc ~after:!first_write with
  | `Dies_after_read (r, Some w) ->
      Alcotest.(check bool) "read then overwritten" true (r < w)
  | `Dies_after_read (_, None) -> Alcotest.fail "expected a following write"
  | `Overwritten_at _ | `Never_used -> Alcotest.fail "expected a read first"

let test_fate_never_used () =
  let prog = compile (liveness_program ()) in
  let _, t = run_traced prog in
  let access = Access.build t in
  let dead = addr_of prog "dead" in
  let w = ref (-1) in
  Trace.iteri
    (fun k (e : Trace.event) ->
      if !w < 0 && Array.exists (fun (l, _) -> Loc.equal l dead) e.writes then
        w := k)
    t;
  match Access.fate access dead ~after:!w with
  | `Never_used -> ()
  | `Dies_after_read _ | `Overwritten_at _ -> Alcotest.fail "dead is dead"

(* --- alignment ------------------------------------------------------------ *)

(* a stored faulty trace as a replay producer *)
let replay_of (t : Trace.t) f = Trace.iter f t

let test_align_identical_runs () =
  let prog = compile (loop_program ~iters:3) in
  let _, t1 = run_traced prog in
  let _, t2 = run_traced prog in
  let steps = ref 0 in
  let div =
    Align.drive (Align.create ~clean:t1 ()) (replay_of t2) (function
      | Align.Step _ -> incr steps
      | Align.Diverged _ | Align.End -> ())
  in
  Alcotest.(check bool) "no divergence" true (div = None);
  Alcotest.(check int) "all steps" (Trace.length t1) !steps

let test_align_detects_corruption_and_masking () =
  (* x is corrupted by a fault, then overwritten clean *)
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("y", Ty.I64) ]
         [
           SAssign ("x", i 1);
           SAssign ("y", v "x" + i 1);
           SAssign ("x", i 7);
         ])
  in
  let _, clean = run_traced prog in
  (* corrupt the first store's value *)
  let store_seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      if !store_seq < 0 && e.op = Trace.OStore then store_seq := e.seq)
    clean;
  let fault = Machine.Flip_write { seq = !store_seq; bit = 5 } in
  let _, faulty = run_traced ~fault prog in
  let w = Align.create ~fault ~clean () in
  let xloc = addr_of prog "x" in
  let saw_corrupted = ref false in
  let div =
    Align.drive w (replay_of faulty) (fun _ ->
        if Align.is_corrupted w xloc then saw_corrupted := true)
  in
  if div <> None then Alcotest.fail "no divergence expected";
  Alcotest.(check bool) "x was corrupted" true !saw_corrupted;
  Alcotest.(check bool) "x clean at end (overwritten)" false
    (Align.is_corrupted w xloc)

let test_align_divergence () =
  (* flipping the condition operand changes the branch direction *)
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:[ DScalar ("x", Ty.I64); DScalar ("r", Ty.I64) ]
         [
           SAssign ("x", i 0);
           SIf (v "x" = i 0, [ SAssign ("r", i 1) ], [ SAssign ("r", i 2) ]);
         ])
  in
  let _, clean = run_traced prog in
  (* corrupt the comparison's result *)
  let cmp_seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      match e.op with
      | Trace.OBin Op.Eq when !cmp_seq < 0 -> cmp_seq := e.seq
      | _ -> ())
    clean;
  let fault = Machine.Flip_write { seq = !cmp_seq; bit = 0 } in
  let _, faulty = run_traced ~fault prog in
  let div =
    Align.drive (Align.create ~fault ~clean ()) (replay_of faulty) ignore
  in
  Alcotest.(check bool) "control divergence detected" true (div <> None)

(* a corrupted index sends the faulty run's stores to another word: the
   word only the clean run writes keeps its earlier faulty value.  Both
   shadow states must end equal to the two runs' final memories *)
let test_align_misdirected_stores () =
  let prog =
    let open Ast in
    compile
      (main_program
         ~globals:
           [ DScalar ("p", Ty.I64); DArr ("a", Ty.F64, [ 2 ]); DScalar ("r", Ty.F64) ]
         [
           SAssign ("p", i 0);
           SStore ("a", [ v "p" ], f 7.0);
           SStore ("a", [ v "p" ], f 9.0);
           SAssign ("r", idx1 "a" (i 0) + f 1.0);
         ])
  in
  let clean_r, clean = run_traced prog in
  let p_addr = (Option.get (Prog.find_symbol prog "p")).Prog.sym_addr in
  let store_seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      match e.writes with
      | [| (Loc.Mem a, _) |] when a = p_addr && !store_seq < 0 ->
          store_seq := e.seq
      | _ -> ())
    clean;
  let fault = Machine.Flip_write { seq = !store_seq; bit = 0 } in
  let faulty_r, faulty = run_traced ~fault prog in
  let w = Align.create ~fault ~clean () in
  if Align.drive w (replay_of faulty) ignore <> None then
    Alcotest.fail "no divergence expected";
  let written = Loc.Tbl.create 16 in
  List.iter
    (Trace.iter (fun (e : Trace.event) ->
         Array.iter (fun (l, _) -> Loc.Tbl.replace written l ()) e.writes))
    [ clean; faulty ];
  Loc.Tbl.iter
    (fun loc () ->
      match loc with
      | Loc.Mem a ->
          let name = Fmt.to_to_string Loc.pp loc in
          Alcotest.(check int64) (name ^ " clean")
            (Machine.mem_get clean_r.Machine.mem a)
            (Align.clean_value w loc);
          Alcotest.(check int64) (name ^ " faulty")
            (Machine.mem_get faulty_r.Machine.mem a)
            (Align.faulty_value w loc)
      | Loc.Reg _ -> ())
    written;
  let a0 = Loc.Mem (Prog.addr_of_element prog "a" [ 0 ]) in
  Alcotest.(check bool) "a[0] corrupted" true (Align.is_corrupted w a0)

(* --- DDDG ----------------------------------------------------------------- *)

let test_dddg_inputs_outputs () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let access = Access.build t in
  let insts = Region.instances t in
  let produce = List.nth insts 0 in
  let g = Dddg.build t access ~lo:produce.Region.lo ~hi:produce.Region.hi in
  let a = addr_of prog "a" and b = addr_of prog "b" in
  let t_addr = addr_of prog "t" in
  let input_locs = List.map (fun (n : Dddg.node) -> n.Dddg.loc) g.Dddg.inputs in
  Alcotest.(check bool) "a is an input" true (List.exists (Loc.equal a) input_locs);
  Alcotest.(check bool) "b is an input" true (List.exists (Loc.equal b) input_locs);
  let out_locs = List.map (fun (n : Dddg.node) -> n.Dddg.loc) g.Dddg.outputs in
  Alcotest.(check bool) "t is an output (read by consume)" true
    (List.exists (Loc.equal t_addr) out_locs)

let test_dddg_mem_addr_helpers () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let access = Access.build t in
  let produce = List.hd (Region.instances t) in
  let g = Dddg.build t access ~lo:produce.Region.lo ~hi:produce.Region.hi in
  let t_sym = match Prog.find_symbol prog "t" with Some s -> s.Prog.sym_addr | None -> -1 in
  Alcotest.(check bool) "t among output addrs" true
    (List.mem t_sym (Dddg.output_mem_addrs g));
  Alcotest.(check bool) "inputs non-empty" true (Dddg.input_mem_addrs g <> [])

let test_dddg_edges_and_dot () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let access = Access.build t in
  let produce = List.hd (Region.instances t) in
  let g = Dddg.build t access ~lo:produce.Region.lo ~hi:produce.Region.hi in
  Alcotest.(check bool) "has edges" true (g.Dddg.edges <> []);
  Alcotest.(check bool) "internal count consistent" true
    (Dddg.internal_count g
     = Array.length g.Dddg.nodes - List.length g.Dddg.inputs
       - List.length g.Dddg.outputs);
  let dot = Dddg.to_dot g in
  Alcotest.(check bool) "dot text" true
    (String.length dot > 20
     && String.equal (String.sub dot 0 7) "digraph")

(* versions increase monotonically per location *)
let prop_dddg_versions =
  QCheck.Test.make ~count:20 ~name:"dddg node versions are per-location monotone"
    QCheck.(int_range 1 5)
    (fun iters ->
      let prog = compile (loop_program ~iters) in
      let _, t = run_traced prog in
      let access = Access.build t in
      match Region.instances t with
      | [] -> true
      | inst :: _ ->
          let g = Dddg.build t access ~lo:inst.Region.lo ~hi:inst.Region.hi in
          let seen : (Loc.t, int) Hashtbl.t = Hashtbl.create 16 in
          Array.for_all
            (fun (n : Dddg.node) ->
              let prev =
                match Hashtbl.find_opt seen n.Dddg.loc with
                | Some v -> v
                | None -> -1
              in
              Hashtbl.replace seen n.Dddg.loc n.Dddg.version;
              n.Dddg.version > prev)
            g.Dddg.nodes)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "region instances" `Quick test_region_instances_two_regions;
      Alcotest.test_case "instances per iteration" `Quick
        test_region_instances_per_iteration;
      Alcotest.test_case "find instance" `Quick test_find_instance;
      Alcotest.test_case "iteration spans" `Quick test_iteration_spans;
      Alcotest.test_case "fate: dies after read" `Quick test_fate_dies_after_read;
      Alcotest.test_case "fate: never used" `Quick test_fate_never_used;
      Alcotest.test_case "align identical runs" `Quick test_align_identical_runs;
      Alcotest.test_case "align corruption + overwrite" `Quick
        test_align_detects_corruption_and_masking;
      Alcotest.test_case "align divergence" `Quick test_align_divergence;
      Alcotest.test_case "align misdirected stores" `Quick
        test_align_misdirected_stores;
      Alcotest.test_case "dddg inputs/outputs" `Quick test_dddg_inputs_outputs;
      Alcotest.test_case "dddg address helpers" `Quick test_dddg_mem_addr_helpers;
      Alcotest.test_case "dddg edges and dot" `Quick test_dddg_edges_and_dot;
      QCheck_alcotest.to_alcotest prop_dddg_versions;
    ] )
