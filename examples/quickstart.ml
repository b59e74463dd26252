(* Quickstart: write a tiny program in the mini-C DSL, run it under the
   tracing VM, inject a single bit flip, and look at everything the
   framework can tell you about it — outcome, ACL series, patterns, and
   the DDDG of a code region.

   Run with: dune exec examples/quickstart.exe *)

let program : Ast.program =
  let open Ast in
  {
    globals =
      [
        DArr ("data", Ty.F64, [ 16 ]);
        DScalar ("sum", Ty.F64);
        DScalar ("result", Ty.F64);
        DScalar ("tran", Ty.F64);
        DScalar ("amult", Ty.F64);
      ];
    funs =
      [
        {
          fname = "main";
          params = [];
          ret = None;
          locals = [];
          body =
            [
              SAssign ("tran", f 314159265.0);
              SAssign ("amult", f 1220703125.0);
              (* region "fill": random data *)
              SRegion
                ( "fill",
                  10,
                  13,
                  [
                    SFor
                      ( "j",
                        i 0,
                        i 16,
                        [ SStore ("data", [ v "j" ], Randlc ("tran", v "amult")) ]
                      );
                  ] );
              (* region "reduce": accumulate — repeated additions live here *)
              SRegion
                ( "reduce",
                  20,
                  24,
                  [
                    SAssign ("sum", f 0.0);
                    SFor
                      ( "j",
                        i 0,
                        i 16,
                        [ SAssign ("sum", v "sum" + idx1 "data" (v "j")) ] );
                  ] );
              SAssign ("result", v "sum");
              SPrint ("RESULT %.17g\n", [ v "result" ]);
            ];
        };
      ];
    entry = "main";
  }

let () =
  let prog = Compile.compile program in
  Printf.printf "compiled: %d static instructions, %d regions, %d memory words\n"
    (Prog.static_size prog)
    (Array.length prog.Prog.region_table)
    prog.Prog.mem_size;

  (* 1. fault-free traced run *)
  let clean, clean_trace = Machine.run_traced prog in
  Printf.printf "fault-free: %d dynamic instructions, output:\n%s\n"
    clean.Machine.instructions clean.Machine.output;

  (* 2. the DDDG of the reduce region: inputs / outputs / internals *)
  let access = Access.build clean_trace in
  let reduce = (Prog.region_by_name prog "reduce").Prog.rid in
  (match Region.find_instance clean_trace ~rid:reduce ~number:0 with
  | None -> print_endline "no reduce instance?"
  | Some inst ->
      let g = Dddg.build clean_trace access ~lo:inst.Region.lo ~hi:inst.Region.hi in
      Printf.printf
        "reduce region: %d events, DDDG with %d nodes (%d inputs, %d outputs)\n"
        (Region.size inst)
        (Array.length g.Dddg.nodes)
        (List.length g.Dddg.inputs)
        (List.length g.Dddg.outputs);
      print_endline "DOT graph (first lines):";
      String.split_on_char '\n' (Dddg.to_dot ~max_nodes:6 g)
      |> List.filteri (fun i _ -> i < 8)
      |> List.iter print_endline);

  (* 3. inject a bit flip into the data array mid-fill and analyze *)
  let addr = Prog.addr_of_element prog "data" [ 7 ] in
  let fault = Machine.Mem { seq = 400; addr; corruption = Machine.flip 51 } in
  let faulty = ref None in
  (* the VM is deterministic: the analysis replays the faulty run into a
     sink rather than keeping its trace *)
  let replay sink = faulty := Some (Machine.run_sink ~fault ~sink prog) in
  let acl = Acl.analyze_replay ~fault ~clean:clean_trace ~replay () in
  Printf.printf "\nfaulty run output:\n%s" (Option.get !faulty).Machine.output;
  Printf.printf
    "ACL: peak %d alive corrupted locations, %d deaths, %d masking events\n"
    acl.Acl.peak
    (List.length acl.Acl.deaths)
    (List.length acl.Acl.maskings);
  List.iter
    (fun (m : Acl.masking) ->
      Printf.printf "  masking: %s at line %d (region %d)\n"
        (Acl.mask_kind_to_string m.Acl.m_kind)
        m.Acl.m_line m.Acl.m_region)
    acl.Acl.maskings;
  (* 4. which patterns did the fault exercise? *)
  List.iter
    (fun rp -> Fmt.pr "patterns: %a@." Dynamic_detect.pp rp)
    (Dynamic_detect.of_acl acl)
