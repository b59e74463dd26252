(* The automatic-hardening subsystem: Before/After insertion in the
   shared rewrite engine, the four pattern-injection passes, the pass
   manager's Verify gate and protective-site bookkeeping, and the
   differential against the hand-written hardened CG variants.

   The load-bearing property (exercised on all ten registered apps):
   every pass, alone and composed, is a fault-free identity — the
   transformed program finishes, prints bit-identical output, and
   passes its own verification phase — while the pipeline's Verify
   gate guarantees the IR stays clean. *)

let contains (haystack : string) (needle : string) : bool =
  let n = String.length haystack and m = String.length needle in
  let rec scan i =
    i + m <= n
    && (String.equal (String.sub haystack i m) needle || scan (i + 1))
  in
  scan 0

let dummy_prog (f : Prog.func) : Prog.t =
  {
    Prog.funcs = [| f |];
    entry = 0;
    mem_size = 1;
    init_mem = [];
    region_table =
      [| { Prog.rid = 0; rname = "loop"; line_lo = 1; line_hi = 5 } |];
    mark_names = [||];
    symbols = [];
  }

(* r0 counts down from 10; the loop head at pc 2 is a branch target *)
let loop_func () : Prog.func =
  {
    Prog.fname = "f";
    nregs = 4;
    code =
      [|
        Instr.Const (0, 10L);
        Instr.Const (1, 1L);
        Instr.Bin (Op.Sub, 0, 0, 1);
        Instr.Bnz (0, 2, 4);
        Instr.Ret None;
      |];
    lines = [| 1; 2; 3; 4; 5 |];
    regions = [| -1; -1; 0; 0; -1 |];
  }

let test_splice_before_after () =
  let f = loop_func () in
  let f', map =
    Rewrite.apply f
      ~insertions:
        [
          Rewrite.before 2 [ Instr.Const (2, 7L) ];
          Rewrite.after 2 [ Instr.Const (3, 8L) ];
        ]
  in
  Alcotest.(check int) "grew by two" 7 (Array.length f'.Prog.code);
  Alcotest.(check int) "anchor moved" 3 map.(2);
  Alcotest.(check bool) "before block precedes anchor" true
    (f'.Prog.code.(2) = Instr.Const (2, 7L));
  Alcotest.(check bool) "after block follows anchor" true
    (f'.Prog.code.(4) = Instr.Const (3, 8L));
  (* the back edge to the anchor now enters at the before block, so the
     inserted code runs on every path that ran the anchor *)
  (match f'.Prog.code.(5) with
  | Instr.Bnz (0, 2, 6) -> ()
  | ins -> Alcotest.failf "bad retarget: %s" (Fmt.str "%a" Instr.pp ins));
  (* metadata inherited from the anchor *)
  Alcotest.(check int) "inserted line" f.Prog.lines.(2) f'.Prog.lines.(2);
  Alcotest.(check int) "inserted region" 0 f'.Prog.regions.(2);
  Prog.validate (dummy_prog f')

let test_splice_rejects () =
  let f = loop_func () in
  let rejects insertions =
    match Rewrite.apply ~insertions f with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "control flow in block" true
    (rejects [ Rewrite.before 1 [ Instr.Jmp 0 ] ]);
  Alcotest.(check bool) "After a terminator" true
    (rejects [ Rewrite.after 3 [ Instr.Const (2, 0L) ] ]);
  Alcotest.(check bool) "anchor out of range" true
    (rejects [ Rewrite.before 9 [ Instr.Const (2, 0L) ] ])

(* --- a tiny region program: duplicate-compare turns SDCs into traps --- *)

let tiny_program () =
  let open Ast in
  Helpers.main_program
    ~globals:
      [
        DScalar ("a", Ty.F64);
        DScalar ("b", Ty.F64);
        DScalar ("out", Ty.F64);
      ]
    [
      SAssign ("a", f 1.5);
      SAssign ("b", f 2.25);
      SRegion
        ( "hot", 1, 2,
          [ SAssign ("out", (v "a" * v "b") + (v "a" - v "b")) ] );
      SPrint ("RESULT %.17g\n", [ v "out" ]);
    ]

(* flip bit [bit] of every dynamic instruction's written value in turn;
   count the runs that finish with different output (SDCs) *)
let sdc_count (prog : Prog.t) ~(bit : int) : int =
  let clean = Machine.run_plain prog in
  let n = clean.Machine.instructions in
  let sdcs = ref 0 in
  for seq = 0 to n - 1 do
    let r =
      Machine.run prog
        {
          Machine.default_config with
          fault = Some (Helpers.flip_write ~seq bit);
          budget = 100 * n;
        }
    in
    match r.Machine.outcome with
    | Machine.Finished when not (String.equal r.Machine.output clean.Machine.output) ->
        incr sdcs
    | _ -> ()
  done;
  !sdcs

let test_duplicate_compare_detects () =
  let base = Helpers.compile (tiny_program ()) in
  let hard, reports, _ =
    Pass.run_pipeline ~opts:{ Pass.top_k = 1 } [ Passes.duplicate_compare ]
      base
  in
  let rep = List.hd reports in
  Alcotest.(check bool) "instrumented the region" true
    (rep.Pass.sites_changed > 0);
  (* fault-free identity *)
  let rb = Machine.run_plain base and rh = Machine.run_plain hard in
  Alcotest.(check string) "same output" rb.Machine.output rh.Machine.output;
  (* exhaustive single-bit-62 injection: high-exponent corruption of
     any guarded arithmetic now traps instead of corrupting RESULT *)
  let sb = sdc_count base ~bit:62 and sh = sdc_count hard ~bit:62 in
  Alcotest.(check bool)
    (Printf.sprintf "fewer SDCs (baseline %d, hardened %d)" sb sh)
    true (sh < sb)

let test_trunc_barrier_traps_huge () =
  let base = Helpers.compile (tiny_program ()) in
  let hard, reports, _ = Pass.run_pipeline [ Passes.trunc_barrier ] base in
  Alcotest.(check bool) "barrier on the region's FP store" true
    ((List.hd reports).Pass.sites_changed > 0);
  let rb = Machine.run_plain base and rh = Machine.run_plain hard in
  Alcotest.(check string) "fault-free identity" rb.Machine.output
    rh.Machine.output;
  let sb = sdc_count base ~bit:62 and sh = sdc_count hard ~bit:62 in
  Alcotest.(check bool)
    (Printf.sprintf "fewer SDCs (baseline %d, hardened %d)" sb sh)
    true (sh < sb)

(* --- pass manager ------------------------------------------------------ *)

let test_verify_gate () =
  (* a pass that emits broken IR must be stopped by the gate *)
  let broken : Pass.t =
    {
      Pass.name = "break-it";
      short = "brk";
      doc = "corrupts a register index";
      run =
        (fun _opts p ->
          let funcs =
            Array.map
              (fun (f : Prog.func) ->
                let code = Array.copy f.Prog.code in
                code.(0) <- Instr.Const (f.Prog.nregs + 7, 0L);
                { f with Prog.code })
              p.Prog.funcs
          in
          ( { p with Prog.funcs },
            {
              Pass.pass_name = "break-it";
              sites_considered = 1;
              sites_changed = 1;
              instrs_added = 0;
              instrs_removed = 0;
              regs_added = 0;
              changes = [];
              protective = [];
            },
            Sitemap.identity p ))
    }
  in
  let base = Helpers.compile (tiny_program ()) in
  match Pass.run_pipeline [ broken ] base with
  | _ -> Alcotest.fail "gate let broken IR through"
  | exception Invalid_argument _ -> () (* Prog.validate caught it first *)
  | exception Pass.Verify_failed { passes; diags } ->
      Alcotest.(check (list string)) "names the pipeline" [ "break-it" ] passes;
      Alcotest.(check bool) "has error diags" true (diags <> [])

let test_parse_spec () =
  let parse = Pass.parse_spec Passes.all in
  (match parse "all" with
  | Ok ps -> Alcotest.(check int) "all = four passes" 4 (List.length ps)
  | Error e -> Alcotest.fail e);
  (match parse "fresh,dup" with
  | Ok ps ->
      (* canonical order, independent of spec order *)
      Alcotest.(check (list string)) "canonical order"
        [ "duplicate-compare"; "overwrite-fresh" ]
        (List.map (fun (p : Pass.t) -> p.Pass.name) ps);
      Alcotest.(check string) "spec names" "dup+fresh"
        (Pass.spec_names Passes.all ps)
  | Error e -> Alcotest.fail e);
  match parse "dup,nosuch" with
  | Ok _ -> Alcotest.fail "accepted an unknown pass"
  | Error msg ->
      Alcotest.(check bool) "names the unknown pass" true
        (contains msg "nosuch")

(* --- protective sites feed the static ranking (satellite) -------------- *)

let test_protective_sites_rank () =
  let app = Registry.find "CG" in
  let hard, reports, _ = Pass.run_pipeline Passes.all (App.program app) in
  let sites = Pass.protective_sites reports in
  Alcotest.(check bool) "guards recorded" true (List.length sites > 50);
  (* remapping kept every site pointing at a guard instruction: the
     compare of a detector pass or the zero-overwrite of the scrubber *)
  List.iter
    (fun (fname, pc) ->
      let f = hard.Prog.funcs.(Prog.func_index hard fname) in
      Alcotest.(check bool)
        (Printf.sprintf "%s:%d is a guard" fname pc)
        true
        (pc >= 0
        && pc < Array.length f.Prog.code
        &&
        match f.Prog.code.(pc) with
        | Instr.Bin (Op.Eq, _, _, _) | Instr.Bin (Op.Fgt, _, _, _)
        | Instr.Const (_, 0L) ->
            true
        | _ -> false))
    sites;
  let without = Vuln.rank hard in
  let with_ = Harden.ranking_after hard reports in
  let total r =
    List.fold_left (fun acc s -> acc + s.Vuln.protective_sites) 0 r
  in
  Alcotest.(check bool) "extra sites counted" true (total with_ > total without);
  let score_of r rid =
    (List.find (fun s -> s.Vuln.rid = rid) r).Vuln.score
  in
  Alcotest.(check bool) "some region's score drops" true
    (List.exists
       (fun (s : Vuln.region_score) ->
         score_of with_ s.Vuln.rid < s.Vuln.score)
       without)

(* --- the property: fault-free identity on all ten apps ----------------- *)

(* Digest of the marshaled [all] output per app (as [Compiled.digest]
   keys plans): any change to what hardening emits shows here *)
let all_digests =
  [
    ("CG", "a3262b355ce03e9eafc775a83f9add2f");
    ("MG", "33d1d7d96b07c0149df5a6cf2292034d");
    ("LU", "e4811df765899c2b35ba190de4b88a76");
    ("BT", "c135357d14840af3adfeb1fa95781f8c");
    ("IS", "97cab7f80a1500c7c880dad4c5f4b23b");
    ("DC", "12b60e51d12377cbc4e0af757076b84e");
    ("SP", "e5be017e18f432ca4a1cc315a5e6b9f9");
    ("FT", "381bd65eac80191a8600c778b4bcbba7");
    ("KMEANS", "7cf0c850e2eb5d16ddcd31fd5723ef96");
    ("LULESH", "6ba5fc3b4c3693718cf5c65912763996");
  ]

let test_identity_all_apps () =
  List.iter
    (fun (app : App.t) ->
      let base = App.program app in
      let ref_out = (App.reference app).Machine.output in
      let pipelines =
        List.map (fun p -> [ p ]) Passes.all @ [ Passes.all ]
      in
      List.iter
        (fun passes ->
          let label =
            Printf.sprintf "%s@%s" app.App.name
              (Pass.spec_names Passes.all passes)
          in
          (* run_pipeline raises if the Verify gate finds errors *)
          let hard, _, _ = Pass.run_pipeline passes base in
          if passes == Passes.all then
            Alcotest.(check string)
              (label ^ " program digest")
              (List.assoc app.App.name all_digests)
              (Digest.to_hex (Digest.string (Marshal.to_string hard [])));
          let r = Helpers.run ~budget:200_000_000 hard in
          Helpers.check_finished r;
          Alcotest.(check string)
            (label ^ " output bit-identical")
            ref_out r.Machine.output;
          Alcotest.(check bool)
            (label ^ " verification accepts")
            true
            (App.verified r.Machine.output))
        pipelines)
    Registry.all

(* --- differential vs the hand-written CG variants (satellite) ---------- *)

let test_differential_cg () =
  let auto =
    match Fliptracker.resolve_app "CG@all" with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "variant name" "CG@all" auto.App.name;
  let out a = (App.reference a).Machine.output in
  let cg = Registry.find "CG" in
  let dcl = Registry.find "CG+dcl" in
  (* fault-free outputs bit-identical: auto-hardening preserves exactly
     what the semantics-preserving hand transformation preserves *)
  Alcotest.(check string) "auto = baseline output" (out cg) (out auto);
  Alcotest.(check string) "auto = hand-dcl output" (out dcl) (out auto);
  (* the hand-written truncation variant intentionally changes the
     computation (32-bit windows), so only its verification must agree *)
  Alcotest.(check bool) "hand-trunc verifies" true
    (App.verified (out (Registry.find "CG+trunc")))

let test_differential_ordering () =
  (* small paired campaign: baseline < single-pattern < combined, the
     Table III ordering.  Deterministic: trial i of every variant draws
     from Rng.derive ~seed:42 ~index:i. *)
  let app = Registry.find "CG" in
  let effort =
    {
      Effort.quick with
      Effort.campaign =
        { Campaign.default_config with seed = 42; max_trials = Some 80 };
    }
  in
  let r =
    Harden_eval.evaluate ~effort
      ~passes:[ Passes.duplicate_compare; Passes.overwrite_fresh ]
      app
  in
  let sdc label =
    let v = List.find (fun v -> String.equal v.Harden_eval.hv_label label) r.Harden_eval.he_variants in
    Campaign.sdc_rate v.Harden_eval.hv_report.Campaign.counts
  in
  let base = sdc "baseline" in
  let dup = sdc "+duplicate-compare" in
  let fresh = sdc "+overwrite-fresh" in
  let all = sdc "all" in
  Alcotest.(check bool)
    (Printf.sprintf "combined strictly beats baseline (%.3f < %.3f)" all base)
    true (all < base);
  Alcotest.(check bool)
    (Printf.sprintf "single patterns in between (%.3f/%.3f within [%.3f, %.3f])"
       dup fresh all base)
    true
    (all <= dup && dup <= base && all <= fresh && fresh <= base)

(* --- registry integration ---------------------------------------------- *)

let test_resolve_app () =
  (match Fliptracker.resolve_app "mg@dup+trunc" with
  | Ok a -> Alcotest.(check string) "hardened variant name" "MG@dup+trunc" a.App.name
  | Error e -> Alcotest.fail e);
  (match Fliptracker.resolve_app "CG@nosuch" with
  | Ok _ -> Alcotest.fail "accepted a bad pass spec"
  | Error _ -> ());
  match Fliptracker.resolve_app "LULESHH" with
  | Ok _ -> Alcotest.fail "accepted a typo"
  | Error msg ->
      Alcotest.(check bool) "suggests the near match" true
        (contains msg "LULESH")

let suite =
  ( "harden",
    [
      Alcotest.test_case "splice before/after + retarget" `Quick
        test_splice_before_after;
      Alcotest.test_case "splice rejects bad insertions" `Quick
        test_splice_rejects;
      Alcotest.test_case "duplicate-compare detects" `Quick
        test_duplicate_compare_detects;
      Alcotest.test_case "trunc-barrier detects" `Quick
        test_trunc_barrier_traps_huge;
      Alcotest.test_case "verify gate stops broken passes" `Quick
        test_verify_gate;
      Alcotest.test_case "pass spec parsing" `Quick test_parse_spec;
      Alcotest.test_case "protective sites feed Vuln.rank" `Quick
        test_protective_sites_rank;
      Alcotest.test_case "fault-free identity, all apps x all passes" `Slow
        test_identity_all_apps;
      Alcotest.test_case "differential: auto vs hand-hardened CG" `Slow
        test_differential_cg;
      Alcotest.test_case "differential: resilience ordering" `Slow
        test_differential_ordering;
      Alcotest.test_case "resolve_app NAME@SPEC" `Quick test_resolve_app;
    ] )
