(* Events that leave the VM by another route than a stored trace must
   be the same events: a [Machine.run_sink] stream equals the retained
   trace, and ACL over trace files read back from both encodings equals
   ACL over the in-memory traces. *)

open Helpers

(* structural equality of ACL results; Stdlib.compare handles the
   Repeated_add floats (equal bit patterns compare equal) *)
let result_equal (a : Acl.result) (b : Acl.result) =
  compare a.Acl.series b.Acl.series = 0
  && compare a.deaths b.deaths = 0
  && compare a.maskings b.maskings = 0
  && a.divergence = b.divergence
  && a.peak = b.peak && a.final = b.final

let check_result_equal name (a : Acl.result) (b : Acl.result) =
  Alcotest.(check int) (name ^ ": series length") (Array.length a.Acl.series)
    (Array.length b.Acl.series);
  Alcotest.(check int) (name ^ ": deaths") (List.length a.deaths)
    (List.length b.deaths);
  Alcotest.(check int) (name ^ ": maskings") (List.length a.maskings)
    (List.length b.maskings);
  Alcotest.(check int) (name ^ ": peak") a.peak b.peak;
  Alcotest.(check int) (name ^ ": final") a.final b.final;
  Alcotest.(check bool) (name ^ ": identical") true (result_equal a b)

(* a mid-trace writing instruction of the clean run, for a fault that
   certainly corrupts a traced destination *)
let mid_write_fault (clean : Trace.t) : Machine.fault =
  let seq = ref (-1) in
  let target = Trace.length clean / 2 in
  Trace.iter
    (fun (e : Trace.event) ->
      if !seq < 0 && e.seq >= target && Array.length e.writes > 0 then
        seq := e.seq)
    clean;
  Alcotest.(check bool) "found a writing site" true (!seq >= 0);
  flip_write ~seq:!seq 40

(* ACL over trace files in both encodings, read back with
   [Trace_io.load], equals the analysis of the in-memory traces *)
let test_acl_from_files () =
  let app = Mg.app in
  let _, clean = App.trace app in
  let fault = mid_write_fault clean in
  let _, faulty = App.trace_with_fault app fault ~budget:10_000_000 in
  let clean_path = Filename.temp_file "ft_clean" ".trace" in
  let faulty_path = Filename.temp_file "ft_faulty" ".trace" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove clean_path;
      Sys.remove faulty_path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Text clean_path clean;
      Trace_io.save ~format:Trace_io.Binary faulty_path faulty;
      let in_memory = Acl.analyze ~fault ~clean ~faulty () in
      let from_files =
        Acl.analyze ~fault ~clean:(Trace_io.load clean_path)
          ~faulty:(Trace_io.load faulty_path) ()
      in
      check_result_equal "mg-files" in_memory from_files)

let test_run_sink_matches_trace () =
  let prog = compile (loop_program ~iters:4) in
  let mark = Prog.mark_id prog "main_iter" in
  let _, t = run_traced ~iter_mark:mark prog in
  let sunk = ref [] in
  let _ =
    Machine.run_sink ~iter_mark:mark
      ~sink:(fun c -> sunk := Trace.event_of_cursor c :: !sunk)
      prog
  in
  let sunk = Array.of_list (List.rev !sunk) in
  Alcotest.(check int) "event count" (Trace.length t) (Array.length sunk);
  Trace.iteri
    (fun i e ->
      Alcotest.(check bool) "sunk event equal" true (compare e sunk.(i) = 0))
    t

(* Every app's stored trace gives back, through [Trace.get], exactly the
   events its run streamed, also once trimmed.
   A call's return-value write reuses the call's seq, so the seq column
   is not the index: KMEANS, the one app whose calls return values, must
   show it. *)
let test_columns_roundtrip () =
  let seq_not_index = ref false in
  List.iter
    (fun (app : App.t) ->
      let name = app.App.name in
      let t = Trace.create () in
      let mismatches = ref 0 in
      let same i e = if compare (Trace.get t i) e <> 0 then incr mismatches in
      let sink (c : Trace.cursor) =
        Trace.push t c;
        let i = Trace.length t - 1 in
        same i (Trace.event_of_cursor c);
        if c.op = Trace.ORet && c.seq <> i && String.equal name "KMEANS" then
          seq_not_index := true
      in
      ignore
        (Machine.run_sink ~iter_mark:(App.iter_mark app) ~sink (App.program app));
      let last = Trace.get t (Trace.length t - 1) in
      Trace.trim t;
      same (Trace.length t - 1) last;
      Alcotest.(check int) (name ^ ": column = streamed") 0 !mismatches)
    Registry.all;
  Alcotest.(check bool) "KMEANS: a return reuses its call's seq" true
    !seq_not_index

let suite =
  ( "stream",
    [
      Alcotest.test_case "stream acl: MG via files" `Slow test_acl_from_files;
      Alcotest.test_case "run_sink = trace" `Quick test_run_sink_matches_trace;
      Alcotest.test_case "columns = streamed events: every app" `Slow
        test_columns_roundtrip;
    ] )
