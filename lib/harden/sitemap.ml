(* Composable fault-site maps from a pass's input IR onto its output
   IR; see the mli.  Static maps are Rewrite's old->new pc arrays, with
   -1 for deleted instructions; the dynamic translation lifts them to
   sequence numbers by occurrence counting, which is exact because
   every optimizer pass preserves the fault-free control-flow history
   of the instructions it keeps. *)

type t = (string * int array) list

let of_list (l : (string * int array) list) : t = l

let identity (p : Prog.t) : t =
  Array.to_list
    (Array.map
       (fun (f : Prog.func) ->
         (f.Prog.fname, Array.init (Array.length f.Prog.code) Fun.id))
       p.Prog.funcs)

let map_pc (m : t) ~(fname : string) ~(pc : int) : int =
  match List.assoc_opt fname m with
  | Some a when pc >= 0 && pc < Array.length a -> a.(pc)
  | Some _ -> -1
  | None -> pc

(** [compose first then_]: the map of applying [first], then [then_].
    A pc deleted by either stage is deleted by the composition. *)
let compose (first : t) (then_ : t) : t =
  List.map
    (fun (fname, ma) ->
      ( fname,
        Array.map
          (fun p1 -> if p1 < 0 then -1 else map_pc then_ ~fname ~pc:p1)
          ma ))
    first

let surviving (m : t) : int =
  List.fold_left
    (fun acc (_, a) ->
      Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) acc a)
    0 m

let deleted (m : t) : int =
  List.fold_left
    (fun acc (_, a) ->
      Array.fold_left (fun acc p -> if p < 0 then acc + 1 else acc) acc a)
    0 m

(* --- dynamic translation ------------------------------------------------ *)

(* The k-th fault-free execution of a surviving static instruction in
   the reference program corresponds to the k-th execution of its image
   in the optimized program: the passes neither add nor remove
   executions of kept instructions, and inserted instructions are new
   pcs outside the map's image.  So translation is occurrence counting
   per (function, pc). *)

let seq_translation (ref_prog : Prog.t) (m : t) ~(ref_trace : Trace.t)
    ~(opt_trace : Trace.t) : int -> int option =
  (* occurrence -> seq arrays for the optimized trace, two passes to
     avoid building per-event list cells on long traces *)
  let counts : (int * int, int ref) Hashtbl.t = Hashtbl.create 4096 in
  Trace.iter
    (fun (e : Trace.event) ->
      let k = (e.Trace.fidx, e.Trace.pc) in
      match Hashtbl.find_opt counts k with
      | Some c -> incr c
      | None -> Hashtbl.add counts k (ref 1))
    opt_trace;
  let opt_occ : (int * int, int array) Hashtbl.t =
    Hashtbl.create (Hashtbl.length counts)
  in
  Hashtbl.iter (fun k c -> Hashtbl.add opt_occ k (Array.make !c 0)) counts;
  let fill : (int * int, int ref) Hashtbl.t =
    Hashtbl.create (Hashtbl.length counts)
  in
  Trace.iter
    (fun (e : Trace.event) ->
      let k = (e.Trace.fidx, e.Trace.pc) in
      let i =
        match Hashtbl.find_opt fill k with
        | Some i -> i
        | None ->
            let i = ref 0 in
            Hashtbl.add fill k i;
            i
      in
      (Hashtbl.find opt_occ k).(!i) <- e.Trace.seq;
      incr i)
    opt_trace;
  (* per-function static maps, indexed by fidx *)
  let fmaps =
    Array.map
      (fun (f : Prog.func) -> List.assoc_opt f.Prog.fname m)
      ref_prog.Prog.funcs
  in
  (* translate every reference event by its occurrence index *)
  let max_seq = ref (-1) in
  Trace.iter
    (fun (e : Trace.event) -> if e.Trace.seq > !max_seq then max_seq := e.Trace.seq)
    ref_trace;
  let trans = Array.make (!max_seq + 2) (-1) in
  let occ : (int * int, int ref) Hashtbl.t = Hashtbl.create 4096 in
  Trace.iter
    (fun (e : Trace.event) ->
      let k = (e.Trace.fidx, e.Trace.pc) in
      let c =
        match Hashtbl.find_opt occ k with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.add occ k c;
            c
      in
      let i = !c in
      incr c;
      let pc' =
        match fmaps.(e.Trace.fidx) with
        | None -> e.Trace.pc
        | Some a when e.Trace.pc >= 0 && e.Trace.pc < Array.length a ->
            a.(e.Trace.pc)
        | Some _ -> -1
      in
      if pc' >= 0 then
        match Hashtbl.find_opt opt_occ (e.Trace.fidx, pc') with
        | Some arr when i < Array.length arr ->
            trans.(e.Trace.seq) <- arr.(i)
        | Some _ | None -> ())
    ref_trace;
  fun s ->
    if s >= 0 && s <= !max_seq && trans.(s) >= 0 then Some trans.(s) else None
