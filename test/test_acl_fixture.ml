(* ACL results pinned against a fixture.  For every registry app the
   fixture ([Acl_fixture.rows]) names six faults — a single-bit write
   flip, a memory flip, a stuck-at mask, a burst mask, a run that
   diverges and a run that crashes — and the digest of the full ACL
   result each one produced when the fixture was recorded.
   [Acl.analyze] must reproduce every digest bit for bit.

   To record a fixture, run [fixture_rows] over [Registry.all] and
   print each row with [fixture_line]. *)

(* --- fault spelling ------------------------------------------------------- *)

let masks_to_string (c : Machine.corruption) =
  Printf.sprintf "%Ld:%Ld:%Ld" c.Machine.and_mask c.Machine.or_mask
    c.Machine.xor_mask

let fault_to_string : Machine.fault -> string = function
  | Machine.Write { seq; corruption = c } -> (
      match Machine.flipped_bit c with
      | Some bit -> Printf.sprintf "flip-write:%d:%d" seq bit
      | None -> Printf.sprintf "mask-write:%d:%s" seq (masks_to_string c))
  | Machine.Mem { seq; addr; corruption = c } -> (
      match Machine.flipped_bit c with
      | Some bit -> Printf.sprintf "flip-mem:%d:%d:%d" seq addr bit
      | None -> Printf.sprintf "mask-mem:%d:%d:%s" seq addr (masks_to_string c))
  | Machine.Cache_fault _ -> invalid_arg "fault_to_string: cache fault"

let fault_of_string (s : string) : Machine.fault =
  let masks a o x =
    { Machine.and_mask = Int64.of_string a; or_mask = Int64.of_string o;
      xor_mask = Int64.of_string x }
  in
  match String.split_on_char ':' s with
  | [ "flip-write"; seq; bit ] ->
      Machine.Write
        { seq = int_of_string seq;
          corruption = Machine.flip (int_of_string bit) }
  | [ "flip-mem"; seq; addr; bit ] ->
      Machine.Mem
        { seq = int_of_string seq; addr = int_of_string addr;
          corruption = Machine.flip (int_of_string bit) }
  | [ "mask-write"; seq; a; o; x ] ->
      Machine.Write { seq = int_of_string seq; corruption = masks a o x }
  | [ "mask-mem"; seq; addr; a; o; x ] ->
      Machine.Mem
        { seq = int_of_string seq; addr = int_of_string addr;
          corruption = masks a o x }
  | _ -> invalid_arg ("fault_of_string: " ^ s)

(* --- canonical rendering -------------------------------------------------- *)

(* the two CSV exports plus every field they leave out, floats as exact
   hex, so equal renderings mean structurally equal results *)
let render (r : Acl.result) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Export.acl_to_csv r);
  Buffer.add_string b (Export.events_to_csv r);
  Printf.bprintf b "divergence=%s peak=%d final=%d\n"
    (match r.Acl.divergence with Some i -> string_of_int i | None -> "-")
    r.Acl.peak r.Acl.final;
  List.iter
    (fun (d : Acl.death) ->
      Printf.bprintf b "d %d %s %s %b %d %d\n" d.Acl.d_index
        (Fmt.to_to_string Loc.pp d.d_loc)
        (match d.d_cause with Acl.Overwritten -> "o" | Acl.Dead -> "d")
        d.d_fed_forward d.d_line d.d_region)
    r.deaths;
  List.iter
    (fun (m : Acl.masking) ->
      Printf.bprintf b "m %d %s %s %d %d %d\n" m.Acl.m_index
        (Fmt.to_to_string Loc.pp m.m_loc)
        (match m.m_kind with
        | Acl.Repeated_add { before; after } ->
            Printf.sprintf "radd %h %h" before after
        | k -> Acl.mask_kind_to_string k)
        m.m_line m.m_region m.m_instance)
    r.maskings;
  Buffer.contents b

let digest (r : Acl.result) = Digest.to_hex (Digest.string (render r))

let budget (clean : Trace.t) = 10 * Trace.length clean

(* --- choosing the fault set ----------------------------------------------- *)

(* index of the first event at or after [from] satisfying [p] *)
let find_from (t : Trace.t) (from : int) (p : Trace.event -> bool) :
    int option =
  let rec go i =
    if i >= Trace.length t then None
    else if p (Trace.get t i) then Some i
    else go (i + 1)
  in
  go from

(* the last event before index [i] writing [loc] *)
let writer_before (t : Trace.t) (i : int) (loc : Loc.t) : Trace.event option =
  let rec go k =
    if k < 0 then None
    else
      let e = Trace.get t k in
      if Array.exists (fun (l, _) -> Loc.equal l loc) e.Trace.writes then Some e
      else go (k - 1)
  in
  go (i - 1)

let is_op p (e : Trace.event) = p e.Trace.op

(* the first of up to 40 candidate faults, one per event at or after
   [from] matching [p], whose faulty run satisfies [ok] *)
let search app (clean : Trace.t) ~from ~p
    ~(fault_of : int -> Trace.event -> Machine.fault option) ~ok :
    Machine.fault =
  let rec go from tries =
    match find_from clean from p with
    | None -> failwith "no candidate fault"
    | Some _ when tries = 0 -> failwith "no candidate fault"
    | Some i -> (
        match fault_of i (Trace.get clean i) with
        | None -> go (i + 1) (tries - 1)
        | Some fault ->
            let r, faulty =
              App.trace_with_fault app fault ~budget:(budget clean)
            in
            if ok fault r faulty then fault else go (i + 1) (tries - 1))
  in
  go from 40

let fault_set (app : App.t) (clean : Trace.t) : (string * Machine.fault) list =
  let n = Trace.length clean in
  let first from p =
    match find_from clean from p with
    | Some i -> Trace.get clean i
    | None -> failwith "no site"
  in
  let store = first (n / 2) (is_op (function Trace.OStore -> true | _ -> false)) in
  let load = first (n / 3) (is_op (function Trace.OLoad -> true | _ -> false)) in
  let load_addr =
    match
      Array.find_opt (fun (l, _) -> Loc.is_mem l) load.Trace.reads
    with
    | Some (Loc.Mem a, _) -> a
    | Some (Loc.Reg _, _) | None -> failwith "load without a memory read"
  in
  let bin =
    first (2 * n / 3) (fun e ->
        Array.length e.Trace.writes > 0
        && match e.Trace.op with Trace.OBin _ -> true | _ -> false)
  in
  let stuck =
    let v = snd bin.Trace.writes.(0) in
    let m = Int64.shift_left 1L 30 in
    let corruption =
      if Int64.equal (Int64.logand v m) 0L then
        { Machine.and_mask = -1L; or_mask = m; xor_mask = 0L }
      else { Machine.and_mask = Int64.lognot m; or_mask = 0L; xor_mask = 0L }
    in
    Machine.Write { seq = bin.Trace.seq; corruption }
  in
  let burst =
    let e = first (n / 4) (fun e -> Array.length e.Trace.writes > 0) in
    Machine.Write
      { seq = e.Trace.seq;
        corruption =
          { and_mask = -1L; or_mask = 0L;
            xor_mask = Int64.shift_left 0b1011L 44 } }
  in
  (* flip the low bit of a branch condition's producer *)
  let divergent =
    search app clean ~from:(n / 2)
      ~p:(is_op (function Trace.OBr _ -> true | _ -> false))
      ~fault_of:(fun pos e ->
        match writer_before clean pos (fst e.Trace.reads.(0)) with
        | Some w -> Some (Helpers.flip_write ~seq:w.Trace.seq 0)
        | None -> None)
      ~ok:(fun fault _ faulty ->
        (Acl.analyze ~fault ~clean ~faulty ()).Acl.divergence <> None)
  in
  (* flip a high bit of a load address's producer: a wild address *)
  let crashing =
    search app clean ~from:(n / 2)
      ~p:(is_op (function Trace.OLoad -> true | _ -> false))
      ~fault_of:(fun pos e ->
        match writer_before clean pos (fst e.Trace.reads.(0)) with
        | Some w -> Some (Helpers.flip_write ~seq:w.Trace.seq 62)
        | None -> None)
      ~ok:(fun _ (r : Machine.result) _ ->
        match r.Machine.outcome with Machine.Trapped _ -> true | _ -> false)
  in
  [
    ("flip-write", Helpers.flip_write ~seq:store.Trace.seq 20);
    ("flip-mem",
      Helpers.flip_mem ~seq:load.Trace.seq ~addr:load_addr 51);
    ("stuck-at", stuck);
    ("burst", burst);
    ("divergent", divergent);
    ("crashing", crashing);
  ]

(* (app, label, fault, digest) for every app and fault *)
let fixture_rows (apps : App.t list) : (string * string * string * string) list =
  List.concat_map
    (fun (app : App.t) ->
      let _, clean = App.trace app in
      List.map
        (fun (label, fault) ->
          let _, faulty = App.trace_with_fault app fault ~budget:(budget clean) in
          ( app.App.name, label, fault_to_string fault,
            digest (Acl.analyze ~fault ~clean ~faulty ()) ))
        (fault_set app clean))
    apps

let fixture_line (app, label, fault, d) =
  Printf.sprintf "    (%S, %S, %S, %S);" app label fault d

(* --- the check ------------------------------------------------------------ *)

let check_app (name : string) () =
  let app = Registry.find name in
  let _, clean = App.trace app in
  List.iter
    (fun (a, label, fault_s, expected) ->
      if String.equal a name then begin
        let fault = fault_of_string fault_s in
        let _, faulty = App.trace_with_fault app fault ~budget:(budget clean) in
        let what = Printf.sprintf "%s %s (%s)" name label fault_s in
        Alcotest.(check string) (what ^ ": analyze") expected
          (digest (Acl.analyze ~fault ~clean ~faulty ()))
      end)
    Acl_fixture.rows

let suite =
  ( "acl fixture",
    List.sort_uniq compare (List.map (fun (a, _, _, _) -> a) Acl_fixture.rows)
    |> List.map (fun name ->
           Alcotest.test_case ("pinned results: " ^ name) `Slow (check_app name))
  )
