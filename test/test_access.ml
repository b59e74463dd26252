(* The packed access index against a naive reference: on traces of
   generated programs, every query [Access] answers — [accesses] and
   [fate] — at every event index must equal a forward scan of the trace
   itself.  Rates, Weighted_rates, Dddg and Campaign.input_target all
   rest on these answers. *)

(* per-location read/write flags by event index *)
let flags (t : Trace.t) (loc : Loc.t) : bool array * bool array =
  let n = Trace.length t in
  let touches a = Array.exists (fun (l, _) -> Loc.equal l loc) a in
  ( Array.init n (fun i -> touches (Trace.get t i).Trace.reads),
    Array.init n (fun i -> touches (Trace.get t i).Trace.writes) )

let naive_accesses (t : Trace.t) (loc : Loc.t) : (int * Access.kind) array =
  let acc = ref [] in
  Trace.iteri
    (fun i (e : Trace.event) ->
      Array.iter
        (fun (l, _) -> if Loc.equal l loc then acc := (i, Access.Read) :: !acc)
        e.reads;
      Array.iter
        (fun (l, _) -> if Loc.equal l loc then acc := (i, Access.Write) :: !acc)
        e.writes)
    t;
  Array.of_list (List.rev !acc)

(* scan forward from [after + 1]: reads keep the value alive, the first
   write ends it (a read in the same event comes first) *)
let naive_fate (reads, writes) ~after : Access.fate =
  let n = Array.length reads in
  let rec go i last_read =
    if i >= n then
      match last_read with
      | Some r -> `Dies_after_read (r, None)
      | None -> `Never_used
    else
      let last_read = if reads.(i) then Some i else last_read in
      if writes.(i) then
        match last_read with
        | Some r -> `Dies_after_read (r, Some i)
        | None -> `Overwritten_at i
      else go (i + 1) last_read
  in
  go (max 0 (after + 1)) None

let touched_locs (t : Trace.t) : Loc.t list =
  let locs = Loc.Tbl.create 64 in
  Trace.iter
    (fun (e : Trace.event) ->
      Array.iter (fun (l, _) -> Loc.Tbl.replace locs l ()) e.reads;
      Array.iter (fun (l, _) -> Loc.Tbl.replace locs l ()) e.writes)
    t;
  Loc.Tbl.fold (fun l () acc -> l :: acc) locs []

(* every query on every touched location (plus one never touched) at
   every index agrees with the reference *)
let index_matches_reference (t : Trace.t) : bool =
  let ix = Access.build t in
  let n = Trace.length t in
  List.for_all
    (fun loc ->
      let fl = flags t loc in
      Access.accesses ix loc = naive_accesses t loc
      && List.for_all
           (fun after -> Access.fate ix loc ~after = naive_fate fl ~after)
           (List.init (n + 2) (fun i -> i - 1)))
    (Loc.Mem 1_000_000 :: touched_locs t)

let trace_of (stmts : Ast.stmt list) : Trace.t =
  let prog_ast : Ast.program =
    {
      Ast.globals =
        List.map (fun v -> Ast.DScalar (v, Ty.I64)) Test_differential.ivars
        @ List.map (fun v -> Ast.DScalar (v, Ty.F64)) Test_differential.fvars
        @ [ Ast.DScalar ("i", Ty.I64) ];
      funs =
        [ { Ast.fname = "main"; params = []; ret = None; locals = []; body = stmts } ];
      entry = "main";
    }
  in
  snd (Helpers.run_traced (Compile.compile prog_ast))

let prop_index =
  QCheck.Test.make ~count:100 ~name:"access index = forward scan, build = index"
    (QCheck.make
       ~print:(fun stmts -> Printf.sprintf "<%d statements>" (List.length stmts))
       Test_differential.gen_program)
    (fun stmts -> index_matches_reference (trace_of stmts))

(* a fixed program with a callee (registers of many activations) and an
   array (indexed memory words) *)
let calls_and_arrays_trace () =
  let open Ast in
  let sum =
    {
      Ast.fname = "sum3";
      params = [ { pname = "xs"; pty = Ty.F64; parr = true; pdims = [] } ];
      ret = Some Ty.F64;
      locals = [ DScalar ("acc", Ty.F64) ];
      body =
        [
          SAssign ("acc", f 0.0);
          SFor ("j", i 0, i 3, [ SAssign ("acc", v "acc" + idx1 "xs" (v "j")) ]);
          SRet (Some (v "acc"));
        ];
    }
  in
  let prog =
    Helpers.compile
      (Helpers.main_program ~funs:[ sum ]
         ~globals:[ DArr ("a", Ty.F64, [ 3 ]); DScalar ("r", Ty.F64) ]
         [
           SFor
             ( "k", i 0, i 3,
               [
                 SStore ("a", [ v "k" ], to_float (v "k"));
                 SAssign ("r", v "r" + CallE ("sum3", [ v "a" ]));
               ] );
         ])
  in
  snd (Helpers.run_traced prog)

let test_calls_and_arrays () =
  Alcotest.(check bool) "calls and arrays" true
    (index_matches_reference (calls_and_arrays_trace ()))

(* the dense store is total: negative ids, ids past its dense range (a
   hand-made or hostile trace file) and untouched slots all behave like
   a map with a default *)
let test_loc_store () =
  let st = Loc_store.create (-1) in
  let locs =
    [
      Loc.Mem 0; Loc.Mem 5; Loc.Mem (-3); Loc.Mem (1 lsl 40); Loc.Mem min_int;
      Loc.Reg (0, 0); Loc.Reg (7, 2); Loc.Reg (-1, 4); Loc.Reg (3, 1 lsl 30);
      Loc.Reg (1 lsl 35, 1); Loc.Reg (max_int, max_int);
    ]
  in
  List.iteri (fun k loc -> Loc_store.set st loc k) locs;
  List.iteri
    (fun k loc ->
      Alcotest.(check int) (Fmt.to_to_string Loc.pp loc) k (Loc_store.get st loc))
    locs;
  List.iter
    (fun loc ->
      Alcotest.(check int) "untouched" (-1) (Loc_store.get st loc))
    [ Loc.Mem 1; Loc.Mem (1 lsl 41); Loc.Reg (7, 3); Loc.Reg (8, 0);
      Loc.Reg (1 lsl 36, 1) ];
  let folded =
    Loc_store.fold (fun loc k acc -> (k, loc) :: acc) st []
    |> List.sort compare |> List.map snd
  in
  Alcotest.(check int) "fold visits every set slot" (List.length locs)
    (List.length folded);
  Alcotest.(check bool) "fold yields the set locations" true
    (List.for_all2 Loc.equal locs folded)

(* far-out ids, as a damaged or hand-made trace file may hold, behave
   like a map without growing a slot array to their size *)
let test_loc_store_far () =
  let st = Loc_store.create (-1) in
  let far = (1 lsl 23) - 1 in
  let locs =
    List.concat_map
      (fun j ->
        [ Loc.Reg (j, far); Loc.Reg (far - j, 0); Loc.Mem (far - j) ])
      (List.init 10 Fun.id)
  in
  let before = Gc.allocated_bytes () in
  List.iteri (fun k loc -> Loc_store.set st loc k) locs;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "under 1 MB allocated (%.0f bytes)" allocated)
    true (allocated < 1e6);
  List.iteri
    (fun k loc ->
      Alcotest.(check int) (Fmt.to_to_string Loc.pp loc) k (Loc_store.get st loc))
    locs;
  List.iter
    (fun loc -> Alcotest.(check int) "untouched" (-1) (Loc_store.get st loc))
    [ Loc.Reg (0, far - 1); Loc.Reg (far - 10, 0); Loc.Mem (far - 10) ];
  Alcotest.(check int) "fold visits every set slot" (List.length locs)
    (Loc_store.fold (fun _ _ n -> n + 1) st 0)

let suite =
  ( "access",
    [
      Alcotest.test_case "index = reference: calls and arrays" `Quick
        test_calls_and_arrays;
      QCheck_alcotest.to_alcotest prop_index;
      Alcotest.test_case "dense location store is total" `Quick test_loc_store;
      Alcotest.test_case "far locations spill" `Quick test_loc_store_far;
    ] )
