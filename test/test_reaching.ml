(* Reaching definitions against the set-per-register reference
   ([Reaching_ref]): every query of the bitset solution must give the
   reference's answer at every pc, register and tracked word, on every
   function of the registry programs (plain and optimized) and on
   random programs. *)

(* the first disagreement between [Reaching] and the reference on [f],
   or [None] *)
let disagreement ~(arity : int) (f : Prog.func) : string option =
  let rd = Reaching.compute ~arity f and rr = Reaching_ref.compute ~arity f in
  let n = Array.length f.Prog.code in
  let bad = ref None in
  let check what pc x ok =
    if !bad = None && not ok then
      bad :=
        Some
          (Printf.sprintf "%s (arity %d): %s differs at pc %d, %s" f.Prog.fname
             arity what pc x)
  in
  for pc = -1 to n do
    for r = -1 to f.Prog.nregs do
      let x = Printf.sprintf "r%d" r in
      check "defs_of" pc x (Reaching.defs_of rd ~pc r = Reaching_ref.defs_of rr ~pc r);
      check "unique_def" pc x
        (Reaching.unique_def rd ~pc r = Reaching_ref.unique_def rr ~pc r);
      check "may_be_uninit" pc x
        (Reaching.may_be_uninit rd ~pc r = Reaching_ref.may_be_uninit rr ~pc r);
      check "const_addr" pc x
        (Reaching.const_addr rd ~pc r = Reaching_ref.const_addr rr ~pc r)
    done
  done;
  let md = Reaching.compute_mem rd and mr = Reaching_ref.compute_mem rr in
  let addrs = Reaching_ref.tracked_addrs mr in
  check "tracked_addrs" 0 "" (Reaching.tracked_addrs md = addrs);
  let untracked = 1 + List.fold_left max 0 addrs in
  for pc = -1 to n do
    List.iter
      (fun addr ->
        check "store_of" pc (Printf.sprintf "word %d" addr)
          (Reaching.store_of md ~pc ~addr = Reaching_ref.store_of mr ~pc ~addr))
      (untracked :: addrs)
  done;
  !bad

let program_disagreement (prog : Prog.t) : string option =
  Array.fold_left
    (fun acc f ->
      match acc with
      | Some _ -> acc
      | None -> (
          match disagreement ~arity:0 f with
          | Some _ as d -> d
          | None -> disagreement ~arity:2 f))
    None prog.Prog.funcs

let test_registry () =
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun name ->
          match Fliptracker.resolve_app name with
          | Error e -> Alcotest.fail e
          | Ok a -> (
              match program_disagreement (App.program a) with
              | Some d -> Alcotest.failf "%s: %s" name d
              | None -> ()))
        [ app.App.name; app.App.name ^ "@opt" ])
    Registry.all

let prop_random_programs =
  QCheck.Test.make ~count:200 ~name:"bitset = reference on random programs"
    (QCheck.make
       ~print:(fun stmts -> Printf.sprintf "<%d statements>" (List.length stmts))
       Gen_prog.gen_program)
    (fun stmts ->
      match program_disagreement (Gen_prog.program_of stmts) with
      | Some d -> QCheck.Test.fail_report d
      | None -> true)

let suite =
  ( "reaching",
    [
      Alcotest.test_case "bitset = reference: registry, plain and @opt" `Quick
        test_registry;
      QCheck_alcotest.to_alcotest prop_random_programs;
    ] )
