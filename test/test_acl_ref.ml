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
    :: List.map
         (fun (app : App.t) ->
           Alcotest.test_case ("reference = columnar: " ^ app.App.name) `Slow
             (check_app app.App.name))
         Registry.all )
