(* Checkpointed compiled trials.

   A compiled faulty run starts at the last clean snapshot at or before
   its fault and stops once its state equals the clean run's at a later
   snapshot.  Neither may change a result, so every case compares the
   checkpointed run with the interpreter, which always runs from
   instruction 0: outcome, output, final memory, instruction count and
   iteration count.  [Compiled.executed] shows that the cases take the
   paths they are named after. *)

let outcome_str = function
  | Machine.Finished -> "finished"
  | Machine.Trapped m -> "trapped: " ^ m
  | Machine.Budget_exceeded -> "budget"

let check_same label (ri : Machine.result) (rc : Machine.result) =
  Alcotest.(check string) (label ^ " outcome")
    (outcome_str ri.Machine.outcome)
    (outcome_str rc.Machine.outcome);
  Alcotest.(check string) (label ^ " output") ri.Machine.output
    rc.Machine.output;
  Alcotest.(check int) (label ^ " instructions") ri.Machine.instructions
    rc.Machine.instructions;
  Alcotest.(check int) (label ^ " iterations") ri.Machine.iterations
    rc.Machine.iterations;
  Alcotest.(check bool) (label ^ " memory") true
    (Machine.mem_equal ri.Machine.mem rc.Machine.mem)

(* the compiled run of [cfg] next to the interpreter's, and the
   instructions the compiled run executed *)
let compare_run label prog plan cfg : Machine.result * int =
  let ri = Machine.run prog cfg in
  let e0 = Compiled.executed () in
  let rc = Compiled.run plan cfg in
  let executed = Compiled.executed () - e0 in
  check_same label ri rc;
  (rc, executed)

(* --- every registry app, sampled whole-program faults ------------------ *)

let test_registry () =
  let executed = ref 0 and instructions = ref 0 in
  List.iter
    (fun (a : App.t) ->
      let prog = App.program a in
      let iter_mark = App.iter_mark a in
      let clean = App.reference a in
      let n = clean.Machine.instructions in
      let plan = Compiled.compile prog in
      let cfg fault =
        { Machine.default_config with
          iter_mark; budget = 20 * n; fault = Some fault }
      in
      (* memory faults hit words the clean run ends with nonzero: live
         data, not padding *)
      let live =
        Machine.mem_to_array clean.Machine.mem
        |> Array.to_list
        |> List.mapi (fun addr w -> (addr, w))
        |> List.filter_map (fun (addr, w) ->
               if Int64.equal w 0L then None else Some addr)
        |> Array.of_list
      in
      let rng = Rng.create ~seed:23 in
      let faults =
        List.init 3 (fun _ ->
            Machine.Write
              {
                seq = Rng.int rng n;
                corruption = Machine.flip (Rng.int rng 64);
              })
        @ List.init 3 (fun _ ->
              Machine.Mem
                {
                  seq = Rng.int rng n;
                  addr = Rng.choose rng live;
                  corruption = Machine.flip (Rng.int rng 64);
                })
      in
      (* record the checkpoints first, so [executed] counts trials only *)
      ignore (Compiled.checkpoint_seqs plan (cfg (List.hd faults)));
      List.iter
        (fun fault ->
          let rc, e =
            compare_run
              (Printf.sprintf "%s %s" a.App.name
                 (Machine.fault_to_string fault))
              prog plan (cfg fault)
          in
          executed := !executed + e;
          instructions := !instructions + rc.Machine.instructions)
        faults)
    Registry.all;
  (* restores and early stops skip most of what from-0 runs execute *)
  Alcotest.(check bool)
    (Printf.sprintf "executed %d of %d instructions" !executed !instructions)
    true
    (2 * !executed < !instructions)

(* --- the rule's edges, on a small program ------------------------------ *)

(* forty rounds of the entry frame: a scalar [tmp] written and
   overwritten at once (a fault in it dies), an accumulator [s], and a
   call that rewrites four pages of [a] one depth down; [s] is printed
   every ten rounds, the sum of [a] at the end *)
let edge_program () : Prog.t * int =
  let open Ast in
  let ast =
    {
      globals =
        [
          DArr ("a", Ty.I64, [ 256 ]);
          DScalar ("s", Ty.I64);
          DScalar ("tmp", Ty.I64);
        ];
      funs =
        [
          {
            fname = "bump";
            params =
              [ { pname = "r"; pty = Ty.I64; parr = false; pdims = [] } ];
            ret = None;
            locals = [ DScalar ("k", Ty.I64) ];
            body =
              [
                SFor
                  ( "k",
                    i 0,
                    i 256,
                    [
                      SStore
                        ( "a",
                          [ v "k" ],
                          idx1 "a" (v "k") + ((v "k" * v "r") % i 7) );
                    ] );
              ];
          };
          {
            fname = "main";
            params = [];
            ret = None;
            locals = [ DScalar ("it", Ty.I64); DScalar ("t", Ty.I64) ];
            body =
              [
                SFor
                  ( "it",
                    i 0,
                    i 40,
                    [
                      SMark "round";
                      SAssign ("tmp", v "it" * i 3);
                      SAssign ("tmp", v "it");
                      SAssign ("s", v "s" + v "tmp");
                      SCall ("bump", [ v "it" ]);
                      SIf
                        ( v "it" % i 10 = i 0,
                          [ SPrint ("s=%d\n", [ v "s" ]) ],
                          [] );
                    ] );
                SAssign ("t", i 0);
                SFor
                  ("it", i 0, i 256, [ SAssign ("t", v "t" + idx1 "a" (v "it")) ]);
                SPrint ("t=%d\n", [ v "t" ]);
              ];
          };
        ];
      entry = "main";
    }
  in
  let prog = Compile.compile ast in
  (prog, Prog.mark_id prog "round")

(* the program, its plan, its clean run and its snapshot seqs *)
let edge_setup () =
  let prog, iter_mark = edge_program () in
  let clean = Machine.run prog { Machine.default_config with iter_mark } in
  let n = clean.Machine.instructions in
  let base = { Machine.default_config with iter_mark; budget = 20 * n } in
  let plan = Compiled.compile prog in
  let seqs = Compiled.checkpoint_seqs plan base in
  (prog, plan, base, clean, seqs)

(* the seqs of the clean run's writes to [name] *)
let writes_to prog name : int list =
  let addr =
    match Prog.find_symbol prog name with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.failf "no symbol %s" name
  in
  let _, trace = Machine.run_traced prog in
  Trace.fold
    (fun acc (e : Trace.event) ->
      if Array.exists (fun (l, _) -> l = Loc.Mem addr) e.Trace.writes then
        e.Trace.seq :: acc
      else acc)
    [] trace
  |> List.rev

(* the last snapshot seq at or before [seq] *)
let restored_at seqs seq =
  Array.fold_left (fun acc s -> if s <= seq then s else acc) 0 seqs

let test_snapshots_taken () =
  let _, _, _, clean, seqs = edge_setup () in
  Alcotest.(check bool) "seq 0 first" true (seqs.(0) = 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d snapshots over %d instructions" (Array.length seqs)
       clean.Machine.instructions)
    true
    (Array.length seqs >= 16);
  Array.iteri
    (fun k s ->
      if k > 0 then Alcotest.(check bool) "ascending" true (s > seqs.(k - 1)))
    seqs

let test_before_first_snapshot () =
  let prog, plan, base, _, seqs = edge_setup () in
  List.iter
    (fun seq ->
      let fault = Helpers.flip_write ~seq 2 in
      ignore
        (compare_run (Printf.sprintf "write at %d" seq) prog plan
           { base with fault = Some fault }))
    [ 0; 1; seqs.(1) / 2; seqs.(1) - 1 ]

let test_fault_on_snapshot_seq () =
  let prog, plan, base, _, seqs = edge_setup () in
  Array.iteri
    (fun k seq ->
      if k > 0 then begin
        let rc, executed =
          compare_run (Printf.sprintf "write at snapshot %d" seq) prog plan
            { base with fault = Some (Helpers.flip_write ~seq 5) }
        in
        Alcotest.(check bool) "restored at the fault" true
          (executed <= rc.Machine.instructions - seq)
      end)
    seqs

let test_mem_fault_at_boundary () =
  let prog, plan, base, _, seqs = edge_setup () in
  let a =
    match Prog.find_symbol prog "a" with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.fail "no symbol a"
  in
  let s =
    match Prog.find_symbol prog "s" with
    | Some s -> s.Prog.sym_addr
    | None -> Alcotest.fail "no symbol s"
  in
  Array.iteri
    (fun k seq ->
      List.iter
        (fun addr ->
          ignore
            (compare_run
               (Printf.sprintf "memory fault at %d, word %d" seq addr)
               prog plan
               {
                 base with
                 fault = Some (Helpers.flip_mem ~seq ~addr (k mod 64));
               }))
        [ a + (k * 37 mod 256); s ])
    seqs;
  (* a wild address traps at the boundary itself *)
  ignore
    (compare_run "wild memory fault" prog plan
       {
         base with
         fault =
           Some (Helpers.flip_mem ~seq:seqs.(3) ~addr:prog.Prog.mem_size 1);
       })

let test_budget_below_snapshot () =
  let prog, plan, base, clean, seqs = edge_setup () in
  let n = clean.Machine.instructions in
  let j = Array.length seqs / 2 in
  List.iter
    (fun (budget, seq) ->
      let rc, _ =
        compare_run
          (Printf.sprintf "budget %d, write at %d" budget seq)
          prog plan
          { base with budget; fault = Some (Helpers.flip_write ~seq 1) }
      in
      if seq >= budget then
        Alcotest.(check string) "cut by the budget" "budget"
          (outcome_str rc.Machine.outcome))
    [
      (seqs.(j) - 1, seqs.(j) + 5);
      (seqs.(j), seqs.(j) + 5);
      (seqs.(j), seqs.(j));
      (seqs.(j) + 3, seqs.(j - 1) + 1);
      (n - 1, n - 10);
      (n - 1, seqs.(j) + 1);
      (0, 0);
    ]

let test_converges () =
  let prog, plan, base, clean, seqs = edge_setup () in
  (* a flipped value of [tmp] is overwritten by the next instruction's
     store: the trial rejoins the clean run at the next snapshot *)
  let dead = List.filteri (fun k _ -> k mod 2 = 0) (writes_to prog "tmp") in
  List.iter
    (fun seq ->
      let rc, executed =
        compare_run (Printf.sprintf "dead write at %d" seq) prog plan
          { base with fault = Some (Helpers.flip_write ~seq 9) }
      in
      Alcotest.(check string) "clean output" clean.Machine.output
        rc.Machine.output;
      (* the fault's snapshot interval may end between the two stores:
         the run is equal at the second snapshot after the fault *)
      let later = List.filter (fun s -> s > seq) (Array.to_list seqs) in
      let stop =
        match later with
        | _ :: s :: _ -> s
        | _ -> clean.Machine.instructions
      in
      Alcotest.(check bool)
        (Printf.sprintf "stopped by seq %d" stop)
        true
        (executed <= stop - restored_at seqs seq))
    dead

let test_never_converges () =
  let prog, plan, base, _, seqs = edge_setup () in
  (* a flipped accumulator is printed and summed: the state never equals
     the clean one again, and the run goes on to its end *)
  List.iter
    (fun seq ->
      let rc, executed =
        compare_run (Printf.sprintf "live write at %d" seq) prog plan
          { base with fault = Some (Helpers.flip_write ~seq 40) }
      in
      Alcotest.(check int) "ran from its snapshot to the end"
        (rc.Machine.instructions - restored_at seqs seq)
        executed)
    (List.filteri (fun k _ -> k mod 7 = 3) (writes_to prog "s"))

let suite =
  ( "checkpoint",
    [
      Alcotest.test_case "compiled = interpreter: registry faults" `Quick
        test_registry;
      Alcotest.test_case "snapshots span the clean run" `Quick
        test_snapshots_taken;
      Alcotest.test_case "fault before the first snapshot" `Quick
        test_before_first_snapshot;
      Alcotest.test_case "fault on a snapshot's seq" `Quick
        test_fault_on_snapshot_seq;
      Alcotest.test_case "memory fault at a boundary" `Quick
        test_mem_fault_at_boundary;
      Alcotest.test_case "budget below a snapshot" `Quick
        test_budget_below_snapshot;
      Alcotest.test_case "dead fault rejoins the clean run" `Quick
        test_converges;
      Alcotest.test_case "live fault runs to the end" `Quick
        test_never_converges;
    ] )
