(* The microarchitectural fault surfaces (lib/arch): instruction-store
   codec totality and round-trips, cache-model transparency and
   corruption semantics, and the cross-structure campaign contract —
   per-structure counts identical across backends and worker counts,
   with the default register-file surface byte-identical to the
   historical campaigns. *)

(* --- instruction-store codec ------------------------------------------- *)

let all_bins =
  Op.
    [
      Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lshr; Ashr; Fadd; Fsub;
      Fmul; Fdiv; Eq; Ne; Lt; Le; Gt; Ge; Feq; Fne; Flt; Fle; Fgt; Fge;
      Imin; Imax; Fmin; Fmax;
    ]

let all_uns =
  Op.
    [
      Neg; Not; Fneg; Fabs; Fsqrt; Fsin; Fcos; Trunc32; FloatOfInt;
      IntOfFloat; F32round;
    ]

(* a two-function program exercising every instruction form, every
   opcode, and every intrinsic kind within one encoding context *)
let covering_prog () : Prog.t =
  let callee : Prog.func =
    {
      Prog.fname = "callee";
      nregs = 4;
      code = [| Instr.Const (0, 7L); Instr.Ret (Some 0); Instr.Ret None |];
      lines = [| 0; 0; 0 |];
      regions = [| -1; -1; -1 |];
    }
  in
  let forms =
    [
      Instr.Const (0, Int64.min_int);
      Instr.Const (1, -1L);
      Instr.Load (2, 0);
      Instr.Store (2, 0);
      Instr.Jmp 5;
      Instr.Bnz (0, 6, 6);
      Instr.Call (1, [| 0; 1 |], Some 3);
      Instr.Call (1, [||], None);
      Instr.Ret (Some 3);
      Instr.Ret None;
      Instr.Mark 3;
      Instr.Intr (Instr.Randlc, [| 0; 1 |], Some 2);
      Instr.Intr (Instr.Print "v=%d\n", [| 0 |], None);
      Instr.Intr (Instr.MpiSend, [| 0; 1; 2 |], None);
      Instr.Intr (Instr.MpiRecv, [| 0; 1 |], Some 2);
      Instr.Intr (Instr.MpiAllreduceSum, [| 0 |], Some 1);
      Instr.Intr (Instr.MpiBarrier, [||], None);
      Instr.Intr (Instr.MpiRank, [||], Some 0);
      Instr.Intr (Instr.MpiSize, [||], Some 0);
      Instr.Intr (Instr.Illegal "synthetic", [||], None);
    ]
    @ List.map (fun op -> Instr.Bin (op, 0, 1, 2)) all_bins
    @ List.map (fun op -> Instr.Un (op, 0, 1)) all_uns
  in
  let code = Array.of_list forms in
  let main : Prog.func =
    {
      Prog.fname = "main";
      nregs = 8;
      code;
      lines = Array.make (Array.length code) 0;
      regions = Array.make (Array.length code) (-1);
    }
  in
  {
    Prog.funcs = [| main; callee |];
    entry = 0;
    mem_size = 16;
    init_mem = [];
    region_table = [||];
    mark_names = [| "a"; "b"; "c"; "d" |];
    symbols = [];
  }

let test_roundtrip_covering () =
  Icodec.roundtrip_check (covering_prog ())

let test_roundtrip_registry () =
  List.iter
    (fun (a : App.t) ->
      Icodec.roundtrip_check (App.program a);
      Icodec.roundtrip_check (Harden.transform Passes.all (App.program a)))
    Registry.all

(* deterministic 64-bit patterns from the campaign RNG *)
let rand64 rng =
  let hi = Rng.int rng (1 lsl 22) and mid = Rng.int rng (1 lsl 21) in
  let lo = Rng.int rng (1 lsl 21) in
  Int64.(
    logor
      (shift_left (of_int hi) 42)
      (logor (shift_left (of_int mid) 21) (of_int lo)))

let test_decode_total () =
  let prog = App.program (Registry.find "CG") in
  let enc = Icodec.encode prog in
  let total = Icodec.total_words enc in
  for i = 0 to 1999 do
    let rng = Rng.derive ~seed:7 ~index:i in
    let widx = Rng.int rng total in
    let fidx, pc = Icodec.locate enc widx in
    let w = Icodec.word enc ~fidx ~pc in
    (* a fully random word, and a near-miss (one random bit of the real
       word flipped) — both must decode without an exception *)
    let patterns =
      [ rand64 rng; Int64.logxor w (Int64.shift_left 1L (Rng.int rng 64)) ]
    in
    List.iter
      (fun p ->
        match Icodec.decode enc ~fidx p with
        | Ok _ | Error _ -> ())
      patterns
  done

(* mutants never escape unclassified: every decoded program runs to a
   classified outcome on both backends, with identical results *)
let test_mutants_classified_both_backends () =
  let prog = App.program (Registry.find "IS") in
  let enc = Icodec.encode prog in
  let total = Icodec.total_words enc in
  let budget = 2_000_000 in
  for i = 0 to 39 do
    let rng = Rng.derive ~seed:11 ~index:i in
    let widx = Rng.int rng total in
    let fidx, pc = Icodec.locate enc widx in
    let word =
      Int64.logxor
        (Icodec.word enc ~fidx ~pc)
        (Int64.shift_left 1L (Rng.int rng 64))
    in
    let mutated = Icodec.mutate prog enc ~fidx ~pc ~word in
    let cfg = { Machine.default_config with budget } in
    let ri = Machine.run mutated cfg in
    let rc = Compiled.run (Compiled.plan_for mutated) cfg in
    Alcotest.(check bool)
      (Printf.sprintf "mutant %d backend-identical" i)
      true
      (ri.Machine.outcome = rc.Machine.outcome
      && ri.Machine.instructions = rc.Machine.instructions
      && ri.Machine.output = rc.Machine.output)
  done

(* --- cache model -------------------------------------------------------- *)

let test_cache_transparent () =
  let geom = { Cache_model.sets = 4; ways = 2; line_words = 2 } in
  let n = 64 in
  let cached = Array.init n (fun i -> Int64.of_int (i * 3)) in
  let flat = Array.copy cached in
  let c = Cache_model.create geom in
  for i = 0 to 999 do
    let rng = Rng.derive ~seed:5 ~index:i in
    let a = Rng.int rng n in
    if Rng.int rng 2 = 0 then begin
      let v = rand64 rng in
      Cache_model.write c cached a v;
      flat.(a) <- v
    end
    else
      Alcotest.(check bool)
        (Printf.sprintf "read %d agrees" i)
        true
        (Cache_model.read c cached a = flat.(a))
  done;
  Cache_model.flush c cached;
  Alcotest.(check bool) "flush restores the exact image" true (cached = flat)

let test_cache_dirty_flip_loses_store () =
  let geom = { Cache_model.sets = 1; ways = 1; line_words = 1 } in
  let mem = [| 42L |] in
  let c = Cache_model.create geom in
  Cache_model.write c mem 0 99L;
  Alcotest.(check bool) "store buffered, not yet in memory" true
    (mem.(0) = 42L);
  (* the flipped dirty bit silently drops the buffered store *)
  Cache_model.corrupt c
    { Cache_model.set = 0; way = 0; field = Cache_model.Dirty }
    ~f:(fun _ -> 0L);
  Cache_model.flush c mem;
  Alcotest.(check bool) "store lost at eviction" true (mem.(0) = 42L)

let test_cache_tag_flip_serves_wrong_word () =
  (* two addresses in the same set; renaming one line's tag onto the
     other address makes a read silently see the wrong word *)
  let geom = { Cache_model.sets = 1; ways = 2; line_words = 1 } in
  let mem = [| 10L; 20L |] in
  let c = Cache_model.create geom in
  Alcotest.(check bool) "a0" true (Cache_model.read c mem 0 = 10L);
  Cache_model.corrupt c
    { Cache_model.set = 0; way = 0; field = Cache_model.Tag }
    ~f:(fun _ -> 1L);
  Alcotest.(check bool) "a1 served from the renamed line" true
    (Cache_model.read c mem 1 = 10L)

let test_compiled_rejects_cache_faults () =
  let fault =
    Machine.Cache_fault
      {
        seq = 100;
        geom = Cache_model.default_geometry;
        loc = { Cache_model.set = 0; way = 0; field = Cache_model.Dirty };
        corruption = Machine.flip 0;
      }
  in
  Alcotest.(check bool) "unsupported" false
    (Compiled.supported { Machine.default_config with fault = Some fault })

(* --- cross-structure campaign contract ---------------------------------- *)

let counts_equal a b =
  a.Campaign.success = b.Campaign.success
  && a.Campaign.failed = b.Campaign.failed
  && a.Campaign.crashed = b.Campaign.crashed
  && a.Campaign.trials = b.Campaign.trials

let test_structure_counts_invariant () =
  let app = Registry.find "IS" in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let clean_instructions = clean.Machine.instructions in
  List.iter
    (fun structure ->
      let target =
        Campaign.structure_target structure prog trace ~clean_instructions
      in
      let cfg =
        { Campaign.default_config with max_trials = Some 25; structure }
      in
      let run backend jobs =
        Campaign.run prog ~verify:(App.verify app) ~clean_instructions ~cfg
          ~exec:{ Campaign.default_exec with backend; jobs }
          target
      in
      let base = run Backend.Interp 1 in
      List.iter
        (fun (label, c) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s = interp/jobs-1"
               (Structure.to_string structure)
               label)
            true (counts_equal base c))
        [
          ("compiled/jobs-1", run Backend.Compiled 1);
          ("compiled/jobs-2", run Backend.Compiled 2);
          ("interp/jobs-2", run Backend.Interp 2);
        ])
    Structure.all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_campaign_tag_structure () =
  let tag cfg = Campaign.campaign_tag cfg ~population:1000 ~trials:100 in
  let default_tag = tag Campaign.default_config in
  (* the historical tag is untouched by the structure field's existence *)
  Alcotest.(check bool) "default tag has no structure suffix" false
    (contains ~sub:"structure" default_tag);
  let istore_tag =
    tag { Campaign.default_config with structure = Structure.Istore }
  in
  Alcotest.(check bool) "istore tag is suffixed" true
    (contains ~sub:":structure=istore" istore_tag)

let test_spec_structure_roundtrip () =
  let check_rt spec =
    match Campaign.spec_of_csexp (Campaign.spec_to_csexp spec) with
    | Ok s -> Alcotest.(check bool) "spec round-trips" true (s = spec)
    | Error e -> Alcotest.fail e
  in
  check_rt Campaign.default_spec;
  check_rt { Campaign.default_spec with sp_structure = Structure.Cache_data };
  (* a legacy 6-atom spec (written before the structure field existed)
     decodes to the register-file surface *)
  let legacy =
    Csexp.List
      [
        Csexp.Atom "campaign-spec"; Csexp.Atom "IS"; Csexp.Atom "42";
        Csexp.Atom "500"; Csexp.Atom "single-bit"; Csexp.Atom "none";
      ]
  in
  match Campaign.spec_of_csexp legacy with
  | Ok s ->
      Alcotest.(check bool) "legacy decodes to reg" true
        (s.Campaign.sp_structure = Structure.Reg)
  | Error e -> Alcotest.fail e

let test_structure_of_string () =
  List.iter
    (fun s ->
      match Structure.of_string (Structure.to_string s) with
      | Ok s' -> Alcotest.(check bool) "name round-trips" true (s = s')
      | Error e -> Alcotest.fail e)
    Structure.all;
  match Structure.of_string "l2-tlb" with
  | Ok _ -> Alcotest.fail "accepted an unknown structure"
  | Error _ -> ()

let suite =
  ( "arch",
    [
      Alcotest.test_case "icodec round-trip: every form and opcode" `Quick
        test_roundtrip_covering;
      Alcotest.test_case "icodec round-trip: registry programs" `Quick
        test_roundtrip_registry;
      Alcotest.test_case "icodec decode is total" `Quick test_decode_total;
      Alcotest.test_case "istore mutants classified on both backends" `Slow
        test_mutants_classified_both_backends;
      Alcotest.test_case "cache is transparent fault-free" `Quick
        test_cache_transparent;
      Alcotest.test_case "flipped dirty bit loses a store" `Quick
        test_cache_dirty_flip_loses_store;
      Alcotest.test_case "flipped tag serves the wrong word" `Quick
        test_cache_tag_flip_serves_wrong_word;
      Alcotest.test_case "compiled backend rejects cache faults" `Quick
        test_compiled_rejects_cache_faults;
      Alcotest.test_case "per-structure counts: backends x jobs" `Slow
        test_structure_counts_invariant;
      Alcotest.test_case "campaign tag: structure suffix" `Quick
        test_campaign_tag_structure;
      Alcotest.test_case "spec codec carries the structure" `Quick
        test_spec_structure_roundtrip;
      Alcotest.test_case "structure names round-trip" `Quick
        test_structure_of_string;
    ] )
