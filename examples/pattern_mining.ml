(* Pattern mining: repeatedly inject faults into each code region of a
   benchmark, run the ACL analysis on every faulty run (replayed, not
   stored), and report which resilience computation patterns acted
   where — the Table-I experiment, with source lines.

   Run with: dune exec examples/pattern_mining.exe -- [APP] [INJECTIONS] *)

let () =
  let app_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "MG" in
  let injections =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4
  in
  let app = Registry.find app_name in
  Printf.printf "mining patterns in %s with %d injections per region\n\n"
    app.App.name injections;
  let clean, trace = App.trace app in
  let prog = App.program app in
  let budget = 10 * clean.Machine.instructions in
  let rng = Rng.create ~seed:2024 in
  let nregions = Array.length prog.Prog.region_table in
  for rid = 0 to nregions - 1 do
    let info = prog.Prog.region_table.(rid) in
    match Region.find_instance trace ~rid ~number:0 with
    | None -> ()
    | Some inst ->
        let target = Campaign.internal_target prog trace inst in
        let observations =
          List.init injections (fun _ ->
              let fault = Campaign.sample_fault rng target in
              let _, acl = Experiments.replay_acl app ~clean:trace fault ~budget in
              Dynamic_detect.of_acl acl)
        in
        let merged = Dynamic_detect.merge observations in
        Printf.printf "%s (lines %d-%d, %d instructions per instance)\n"
          info.Prog.rname info.Prog.line_lo info.Prog.line_hi
          (Region.size inst);
        (match
           List.find_opt
             (fun (rp : Dynamic_detect.region_patterns) -> rp.rid = rid)
             merged
         with
        | None -> print_endline "  no patterns observed"
        | Some rp ->
            List.iter
              (fun (p, n) ->
                if n > 0 then begin
                  let lines =
                    match List.assoc_opt p rp.Dynamic_detect.lines with
                    | Some ls ->
                        String.concat ","
                          (List.map string_of_int
                             (List.filteri (fun i _ -> i < 5) ls))
                    | None -> ""
                  in
                  Printf.printf "  %-10s %5d instances   (lines %s)\n"
                    (Pattern.to_string p) n lines
                end)
              rp.Dynamic_detect.counts);
        print_newline ()
  done;
  (* contrast with the purely static view *)
  print_endline "static pattern sites (whole program):";
  let s = Static_detect.analyze prog in
  List.iter
    (fun p ->
      Printf.printf "  %-10s %5d sites\n" (Pattern.to_string p)
        (Static_detect.count s p))
    Pattern.all
