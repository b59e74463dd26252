(* [Acl.analyze_replay] = the reference walk.  [Acl_ref] keeps the boxed
   alignment and ACL analysis that the columnar walk replaced; on every
   registry app's eight seed-11 whole-program faults, and on generated
   programs under random write and memory faults, the two must return
   the same table: series, peak, final, deaths, maskings and
   divergence. *)

let check_app (name : string) () =
  let app = Registry.find name in
  let clean_r, clean = App.trace app in
  let target = Campaign.whole_program_target (App.program app) clean in
  let rng = Rng.create ~seed:11 in
  let budget = 10 * clean_r.Machine.instructions in
  for k = 1 to 8 do
    let fault = Campaign.sample_fault rng target in
    let fresh, reference =
      Acl_ref.both ~fault ~clean (fun f ->
          ignore (App.replay_with_fault app fault ~budget f))
    in
    match Acl_ref.difference fresh reference with
    | None -> ()
    | Some what ->
        Alcotest.failf "%s fault %d (%s): %s differs from the reference" name
          k (Machine.fault_to_string fault) what
  done

(* the columnar walk against the reference on one hand-made faulty run *)
let check_program prog fault =
  let _, clean = Helpers.run_traced prog in
  let fresh, reference =
    Acl_ref.both ~fault ~clean (fun f ->
        ignore (Machine.run_sink ~budget:10_000_000 ~fault ~sink:f prog))
  in
  (match Acl_ref.difference fresh reference with
  | None -> ()
  | Some what -> Alcotest.failf "%s differs from the reference" what);
  fresh

(* the seq of the first event that writes global [name] *)
let first_write prog clean name =
  let addr = (Option.get (Prog.find_symbol prog name)).Prog.sym_addr in
  let seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) ->
      if !seq < 0 && Array.exists (fun (l, _) -> l = Loc.Mem addr) e.writes
      then seq := e.seq)
    clean;
  !seq

(* A corrupted index sends a store and a load to other words: the
   faulty run's key differs from the clean key at the same access
   position, and a[2] is a location only the faulty run touches, so the
   walk must look both up rather than take the clean trace's slot
   column. *)
let test_misdirected_index () =
  let prog =
    let open Ast in
    Helpers.compile
      (Helpers.main_program
         ~globals:
           [
             DScalar ("p", Ty.I64); DArr ("a", Ty.F64, [ 4 ]);
             DScalar ("s", Ty.F64); DScalar ("r", Ty.F64);
           ]
         [
           SAssign ("p", i 0);
           SStore ("a", [ v "p" ], f 7.0);
           SStore ("a", [ v "p" + i 1 ], f 2.0);
           SAssign ("s", idx1 "a" (v "p") * f 3.0);
           SAssign ("r", idx1 "a" (i 0) + idx1 "a" (i 1) + v "s");
           SPrint ("%.17g %.17g\n", [ v "r"; v "s" ]);
         ])
  in
  let _, clean = Helpers.run_traced prog in
  (* p = 0 becomes 2: the stores and the load go to a[2] and a[3] *)
  let fault = Helpers.flip_write ~seq:(first_write prog clean "p") 1 in
  let r = check_program prog fault in
  Alcotest.(check bool) "no divergence" true (r.Acl.divergence = None);
  Alcotest.(check bool) "corrupted locations counted" true (r.Acl.peak > 0)

(* A corrupted condition flips a branch.  After the divergence the walk
   still follows the faulty run, whose short branch reads the corrupted
   x at positions where the clean run's long branch reads other words:
   x stays alive only if those reads are looked up by key. *)
let test_branch_flip () =
  let prog =
    let open Ast in
    Helpers.compile
      (Helpers.main_program
         ~globals:
           [
             DScalar ("x", Ty.I64); DScalar ("y", Ty.I64);
             DArr ("a", Ty.F64, [ 2 ]); DScalar ("s", Ty.F64);
             DScalar ("r", Ty.F64);
           ]
         [
           SAssign ("x", i 1);
           SStore ("a", [ i 0 ], f 1.5);
           SIf
             ( v "x" = i 1,
               [
                 SAssign ("r", idx1 "a" (i 0) * f 2.0);
                 SAssign ("s", v "r" + f 1.0);
                 SAssign ("r", v "s" * v "r");
                 SAssign ("s", v "s" + v "r");
               ],
               [ SAssign ("y", v "x" + i 5) ] );
           SPrint ("%d %d %.17g %.17g\n", [ v "x"; v "y"; v "r"; v "s" ]);
         ])
  in
  let _, clean = Helpers.run_traced prog in
  (* x = 1 becomes 3 *)
  let fault = Helpers.flip_write ~seq:(first_write prog clean "x") 1 in
  let r = check_program prog fault in
  Alcotest.(check bool) "diverges" true (r.Acl.divergence <> None);
  Alcotest.(check bool) "corrupted locations counted" true (r.Acl.peak > 0)

let prop_generated =
  QCheck.Test.make ~count:200
    ~name:"generated programs under write and memory faults"
    (QCheck.make
       ~print:(fun (stmts, seed) ->
         Printf.sprintf "<%d statements, seed %d>" (List.length stmts) seed)
       QCheck.Gen.(pair Gen_prog.gen_program nat))
    (fun (stmts, seed) ->
      match Acl_ref.check_generated ~seed stmts with
      | None -> true
      | Some (fault, what) ->
          QCheck.Test.fail_reportf "%s: %s differs from the reference"
            (Machine.fault_to_string fault) what)

let suite =
  ( "acl ref",
    QCheck_alcotest.to_alcotest prop_generated
    :: Alcotest.test_case "misdirected index = reference" `Quick
         test_misdirected_index
    :: Alcotest.test_case "branch flip = reference" `Quick test_branch_flip
    :: List.map
         (fun (app : App.t) ->
           Alcotest.test_case ("reference = columnar: " ^ app.App.name) `Slow
             (check_app app.App.name))
         Registry.all )
