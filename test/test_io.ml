(* Trace serialization and exporters. *)

open Helpers

let event_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.seq = b.Trace.seq && a.fidx = b.fidx && a.pc = b.pc && a.act = b.act
  && a.line = b.line && a.region = b.region && a.instance = b.instance
  && a.iter = b.iter && a.op = b.op
  && Array.length a.reads = Array.length b.reads
  && Array.length a.writes = Array.length b.writes
  && Array.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.reads b.reads
  && Array.for_all2
       (fun (l1, v1) (l2, v2) -> Loc.equal l1 l2 && Value.equal v1 v2)
       a.writes b.writes

let test_event_roundtrip () =
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  Trace.iter
    (fun e ->
      let buf = Buffer.create 128 in
      Trace_io.write_event buf e;
      let line = String.trim (Buffer.contents buf) in
      let e' = Trace_io.parse_event line in
      Alcotest.(check bool) "roundtrip" true (event_equal e e'))
    t

let test_trace_file_roundtrip () =
  let prog = compile (loop_program ~iters:3) in
  let _, t = run_traced ~iter_mark:0 prog in
  let path = Filename.temp_file "fliptracker" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path t;
      let t' = Trace_io.load path in
      Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
      let ok = ref true in
      Trace.iteri
        (fun k e -> if not (event_equal e (Trace.get t' k)) then ok := false)
        t;
      Alcotest.(check bool) "all events" true !ok)

let test_split_by_region () =
  let prog = compile (loop_program ~iters:4) in
  let _, t = run_traced prog in
  let dir = Filename.temp_file "fliptracker" ".d" in
  Sys.remove dir;
  let files = Trace_io.split_seq ~dir (Trace.to_seq t) in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      Sys.rmdir dir)
    (fun () ->
      (* the loop body region has four instances -> four files *)
      Alcotest.(check int) "one file per instance" 4 (List.length files);
      let inst = List.hd (Region.instances t) in
      let piece = Trace_io.load (List.hd files) in
      Alcotest.(check int) "piece size" (Region.size inst) (Trace.length piece))

let test_opclass_roundtrip () =
  let all =
    [
      Trace.OConst; Trace.OLoad; Trace.OStore; Trace.OJmp; Trace.OBr true;
      Trace.OBr false; Trace.OCall; Trace.ORet; Trace.OMark 3;
      Trace.OIntr "print:%12.6e"; Trace.OBin Op.Fadd; Trace.OBin Op.Ashr;
      Trace.OUn Op.Trunc32; Trace.OUn Op.Fsqrt;
    ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) "opclass roundtrip" true
        (Trace_io.parse_opclass (Trace_io.opclass_code op) = op))
    all

let test_csv_export () =
  let csv = Export.series_to_csv [| (0, 1); (5, 3); (9, 0) |] in
  Alcotest.(check string) "csv" "instruction,acl\n0,1\n5,3\n9,0\n" csv

let test_csv_field_escaping () =
  (* RFC 4180: separators, quotes, and line breaks force quoting with
     embedded quotes doubled; plain fields pass through untouched *)
  Alcotest.(check string) "plain untouched" "acl" (Export.csv_field "acl");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Export.csv_field "a,b");
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\""
    (Export.csv_field "say \"hi\"");
  Alcotest.(check string) "newline quoted" "\"two\nlines\""
    (Export.csv_field "two\nlines");
  Alcotest.(check string) "empty untouched" "" (Export.csv_field "");
  let csv =
    Export.series_to_csv ~header:("cycles, dynamic", "acl \"live\"")
      [| (1, 2) |]
  in
  Alcotest.(check string) "header escaped"
    "\"cycles, dynamic\",\"acl \"\"live\"\"\"\n1,2\n" csv

let test_svg_export () =
  let svg = Export.series_to_svg ~title:"t" [| (0, 1); (10, 5); (20, 0) |] in
  Alcotest.(check bool) "is svg" true
    (String.length svg > 100
    && String.equal (String.sub svg 0 4) "<svg"
    && String.equal (String.sub svg (String.length svg - 7) 6) "</svg>");
  (* empty series still renders a valid element *)
  let empty = Export.series_to_svg [||] in
  Alcotest.(check bool) "empty ok" true (String.length empty > 10)

let test_events_csv () =
  let prog = compile (two_region_program ()) in
  let _, clean = run_traced prog in
  let fault = flip_write ~seq:10 7 in
  let _, faulty = run_traced ~fault prog in
  let acl = Acl.analyze ~fault ~clean ~faulty () in
  let csv = Export.events_to_csv acl in
  Alcotest.(check bool) "header" true
    (String.length csv > 23
    && String.equal (String.sub csv 0 23) "kind,index,line,region\n");
  (* the overwrite deaths of this fault appear as rows *)
  Alcotest.(check bool) "has rows" true
    (List.length (String.split_on_char '\n' csv) > 2)

(* --- malformed input: every parser failure is Trace_io.Parse_error --- *)

let check_parse_error name f =
  match f () with
  | exception Trace_io.Parse_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Parse_error, got %s" name
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Parse_error, got a value" name

let test_parse_errors () =
  check_parse_error "empty opclass" (fun () -> Trace_io.parse_opclass "");
  check_parse_error "unknown opclass" (fun () -> Trace_io.parse_opclass "z");
  check_parse_error "unknown binop" (fun () -> Trace_io.parse_opclass "b:nope");
  check_parse_error "unknown unop" (fun () -> Trace_io.parse_opclass "u:nope");
  check_parse_error "mark not int" (fun () -> Trace_io.parse_opclass "k:x");
  check_parse_error "empty loc" (fun () -> Trace_io.parse_loc "");
  check_parse_error "one-char loc" (fun () -> Trace_io.parse_loc "r");
  check_parse_error "bad loc prefix" (fun () -> Trace_io.parse_loc "x5");
  check_parse_error "bare int loc" (fun () -> Trace_io.parse_loc "5");
  check_parse_error "reg without dot" (fun () -> Trace_io.parse_loc "r5");
  check_parse_error "reg bad field" (fun () -> Trace_io.parse_loc "r5.y");
  check_parse_error "mem bad field" (fun () -> Trace_io.parse_loc "mz");
  check_parse_error "short line" (fun () -> Trace_io.parse_event "1 2 3");
  check_parse_error "junk line" (fun () ->
      Trace_io.parse_event "not an event at all");
  (* strict percent decoding *)
  check_parse_error "bad escape" (fun () -> Trace_io.parse_opclass "i:%zz");
  check_parse_error "truncated escape" (fun () ->
      Trace_io.parse_opclass "i:%4");
  (* the offending line is attached for context *)
  match Trace_io.parse_event "1 2 3" with
  | exception Trace_io.Parse_error { line; _ } ->
      Alcotest.(check string) "line attached" "1 2 3" line
  | _ -> Alcotest.fail "expected Parse_error"

(* symmetric percent-encoding: every byte value round-trips through the
   intrinsic opclass token, and the token never contains separators *)
let test_percent_encoding_total () =
  let all_bytes = String.init 256 Char.chr in
  List.iter
    (fun s ->
      let tok = Trace_io.opclass_code (Trace.OIntr s) in
      String.iter
        (fun c ->
          Alcotest.(check bool) "no separator bytes" false
            (c = ' ' || c = '\n' || c = '\r' || c = '\t'))
        tok;
      Alcotest.(check bool) "intrinsic roundtrip" true
        (Trace_io.parse_opclass tok = Trace.OIntr s))
    [ all_bytes; ""; "print:%12.6e"; "a b"; "100%"; "%%"; "caf\xc3\xa9" ]

(* --- binary codec --- *)

let test_binary_file_roundtrip () =
  let prog = compile (loop_program ~iters:20) in
  let _, t = run_traced ~iter_mark:(Prog.mark_id prog "main_iter") prog in
  let path = Filename.temp_file "ft_bin" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary path t;
      (* the header is the versioned magic *)
      let ic = open_in_bin path in
      let head = really_input_string ic 4 in
      close_in ic;
      Alcotest.(check string) "magic" Trace_io.magic head;
      (* load sniffs the format; events come back bit-exact *)
      let t' = Trace_io.load path in
      Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
      Trace.iteri
        (fun i e ->
          Alcotest.(check bool) "event bit-exact" true
            (event_equal e (Trace.get t' i)))
        t)

let test_binary_smaller_than_text () =
  let prog = compile (loop_program ~iters:200) in
  let _, t = run_traced ~iter_mark:(Prog.mark_id prog "main_iter") prog in
  let size fmt =
    let path = Filename.temp_file "ft_size" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace_io.save ~format:fmt path t;
        (Unix.stat path).Unix.st_size)
  in
  let text = size Trace_io.Text and bin = size Trace_io.Binary in
  Alcotest.(check bool)
    (Printf.sprintf "binary (%d B) at least 4x smaller than text (%d B)" bin
       text)
    true
    (bin * 4 <= text)

let test_binary_bad_input () =
  let with_file bytes f =
    let path = Filename.temp_file "ft_bad" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc bytes;
        close_out oc;
        f path)
  in
  (* unknown version byte *)
  with_file "FTB\x7f junk" (fun path ->
      check_parse_error "bad version" (fun () -> Trace_io.load path));
  (* a truncated binary file fails mid-event rather than succeeding *)
  let prog = compile (two_region_program ()) in
  let _, t = run_traced prog in
  let path = Filename.temp_file "ft_trunc" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary path t;
      let n = (Unix.stat path).Unix.st_size in
      let ic = open_in_bin path in
      let head = really_input_string ic (n - 3) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc head;
      close_out oc;
      check_parse_error "truncated binary" (fun () -> Trace_io.load path))

(* A binary trace with 1-4 bytes changed at random, from a fixed seed,
   either loads or fails with [Parse_error]: no length read from the
   file goes unchecked into an allocation, and no other exception
   escapes the decoder *)
let test_binary_mutations () =
  let _, t = App.trace (Registry.find "IS") in
  let head = Trace.create () in
  for k = 0 to min 500 (Trace.length t) - 1 do
    Trace.push_event head (Trace.get t k)
  done;
  let path = Filename.temp_file "ft_mut" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~format:Trace_io.Binary path head;
      let ic = open_in_bin path in
      let good = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let rng = Random.State.make [| 25 |] in
      let loaded = ref 0 in
      for m = 1 to 2000 do
        let b = Bytes.of_string good in
        for _ = 1 to 1 + Random.State.int rng 4 do
          Bytes.set b
            (Random.State.int rng (Bytes.length b))
            (Char.chr (Random.State.int rng 256))
        done;
        let oc = open_out_bin path in
        output_bytes oc b;
        close_out oc;
        match Trace_io.load path with
        | _ -> incr loaded
        | exception Trace_io.Parse_error _ -> ()
        | exception e ->
            Alcotest.failf "mutation %d: expected Parse_error, got %s" m
              (Printexc.to_string e)
      done;
      (* most single-byte changes still decode, to other values *)
      Alcotest.(check bool) "some mutations load" true (!loaded > 0))

(* property: arbitrary synthetic events (random stamps, opclasses,
   access sets, and raw 64-bit values) round-trip bit-exactly through
   both codecs *)
let gen_event =
  let open QCheck.Gen in
  let stamp = int_range (-1) 1_000_000 in
  let value =
    oneof
      [
        map Int64.of_int int; map Int64.bits_of_float float; return 0L;
        return Int64.min_int; return (-1L);
      ]
  in
  let loc =
    oneof
      [
        map2 (fun a r -> Loc.Reg (a, r)) (int_range 0 5000) (int_range 0 40);
        map (fun m -> Loc.Mem m) (int_range 0 2_000_000);
      ]
  in
  let opclass =
    oneof
      [
        oneofl
          [
            Trace.OConst; Trace.OLoad; Trace.OStore; Trace.OJmp; Trace.OCall;
            Trace.ORet; Trace.OBr true; Trace.OBr false; Trace.OBin Op.Fadd;
            Trace.OBin Op.Ashr; Trace.OUn Op.Trunc32; Trace.OUn Op.Fsqrt;
          ];
        map (fun n -> Trace.OMark n) (int_range (-4) 100);
        map
          (fun s -> Trace.OIntr s)
          (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12));
      ]
  in
  let accesses = array_size (int_range 0 5) (pair loc value) in
  stamp >>= fun seq ->
  stamp >>= fun fidx ->
  stamp >>= fun pc ->
  stamp >>= fun act ->
  stamp >>= fun line ->
  stamp >>= fun region ->
  stamp >>= fun instance ->
  stamp >>= fun iter ->
  opclass >>= fun op ->
  accesses >>= fun reads ->
  accesses >>= fun writes ->
  return
    {
      Trace.seq; fidx; pc; act; line; region; instance; iter; op; reads;
      writes;
    }

let prop_codec_roundtrip =
  QCheck.Test.make ~count:60 ~name:"random events roundtrip in both codecs"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) gen_event))
    (fun events ->
      let t = Trace.create () in
      List.iter (Trace.push_event t) events;
      List.for_all
        (fun fmt ->
          let path = Filename.temp_file "ft_prop" ".trace" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Trace_io.save ~format:fmt path t;
              let t' = Trace_io.load path in
              Trace.length t' = Trace.length t
              &&
              let ok = ref true in
              Trace.iteri
                (fun i e ->
                  if not (event_equal e (Trace.get t' i)) then ok := false)
                t;
              !ok))
        [ Trace_io.Text; Trace_io.Binary ])

(* property: any traced program's serialized trace parses back *)
let prop_serialization_total =
  QCheck.Test.make ~count:15 ~name:"serialize/parse any loop trace"
    QCheck.(int_range 1 5)
    (fun iters ->
      let prog = compile (loop_program ~iters) in
      let _, t = run_traced prog in
      let buf = Buffer.create 4096 in
      Trace.iter (fun e -> Trace_io.write_event buf e) t;
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun s -> String.length s > 0)
      in
      List.length lines = Trace.length t
      && List.for_all
           (fun l ->
             match Trace_io.parse_event l with _ -> true)
           lines)

let suite =
  ( "io",
    [
      Alcotest.test_case "event roundtrip" `Quick test_event_roundtrip;
      Alcotest.test_case "trace file roundtrip" `Quick test_trace_file_roundtrip;
      Alcotest.test_case "split by region" `Quick test_split_by_region;
      Alcotest.test_case "opclass roundtrip" `Quick test_opclass_roundtrip;
      Alcotest.test_case "csv export" `Quick test_csv_export;
      Alcotest.test_case "csv field escaping" `Quick test_csv_field_escaping;
      Alcotest.test_case "svg export" `Quick test_svg_export;
      Alcotest.test_case "events csv" `Quick test_events_csv;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "percent encoding total" `Quick
        test_percent_encoding_total;
      Alcotest.test_case "binary file roundtrip" `Quick
        test_binary_file_roundtrip;
      Alcotest.test_case "binary 4x smaller" `Quick
        test_binary_smaller_than_text;
      Alcotest.test_case "binary bad input" `Quick test_binary_bad_input;
      Alcotest.test_case "binary mutations fail structured" `Quick
        test_binary_mutations;
      QCheck_alcotest.to_alcotest prop_codec_roundtrip;
      QCheck_alcotest.to_alcotest prop_serialization_total;
    ] )
