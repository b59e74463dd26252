(* Reference reaching definitions for the differential test of
   [Reaching]: the straightforward formulation, one [Set] of definition
   sites per register (and per tracked memory word) at every pc, solved
   with the generic [Dataflow] engine.  Same sentinels and the same
   query semantics as [Reaching]; slow, but obviously right. *)

module S = Set.Make (Int)

type t = {
  func : Prog.func;
  before : S.t array array;  (* per pc, per register: defs reaching before *)
}

let set_array_lattice (width : int) : S.t array Dataflow.lattice =
  {
    Dataflow.bottom = Array.make width S.empty;
    equal = (fun a b -> Array.for_all2 S.equal a b);
    join = (fun a b -> Array.init width (fun i -> S.union a.(i) b.(i)));
  }

let compute ?(arity = 0) (f : Prog.func) : t =
  let cfg = Cfg.build f in
  let nregs = f.Prog.nregs in
  let lat = set_array_lattice nregs in
  let transfer pc fact =
    match Cfg.defs f.Prog.code.(pc) with
    | [] -> fact
    | ds ->
        let fact = Array.copy fact in
        List.iter
          (fun d -> if d >= 0 && d < nregs then fact.(d) <- S.singleton pc)
          ds;
        fact
  in
  let boundary =
    Array.init nregs (fun r ->
        S.singleton (if r < arity then Reaching.param_def else Reaching.uninit_def))
  in
  let sol = Dataflow.solve ~dir:Dataflow.Forward ~lat ~boundary ~transfer cfg in
  let before =
    Reaching.per_pc_facts cfg ~transfer sol ~bottom:lat.Dataflow.bottom
  in
  { func = f; before }

let defs_of (t : t) ~(pc : int) (r : Instr.reg) : int list =
  if pc < 0 || pc >= Array.length t.before || r < 0 || r >= t.func.Prog.nregs
  then []
  else S.elements t.before.(pc).(r)

let unique_def (t : t) ~(pc : int) (r : Instr.reg) : int option =
  match defs_of t ~pc r with [ d ] when d >= 0 -> Some d | _ -> None

let may_be_uninit (t : t) ~(pc : int) (r : Instr.reg) : bool =
  List.mem Reaching.uninit_def (defs_of t ~pc r)

let const_addr (t : t) ~(pc : int) (r : Instr.reg) : int option =
  match unique_def t ~pc r with
  | Some d -> (
      match t.func.Prog.code.(d) with
      | Instr.Const (_, k)
        when Int64.compare k 0L >= 0
             && Int64.compare k (Int64.of_int max_int) < 0 ->
          Some (Int64.to_int k)
      | _ -> None)
  | None -> None

type mem = {
  regs : t;
  addr_index : (int, int) Hashtbl.t;
  addrs : int array;
  mem_before : S.t array array;
}

let compute_mem (regs : t) : mem =
  let f = regs.func in
  let code = f.Prog.code in
  let n = Array.length code in
  let addr_index = Hashtbl.create 64 in
  let addrs = ref [] in
  let note a =
    if not (Hashtbl.mem addr_index a) then begin
      Hashtbl.add addr_index a (Hashtbl.length addr_index);
      addrs := a :: !addrs
    end
  in
  for pc = 0 to n - 1 do
    match code.(pc) with
    | Instr.Load (_, a) | Instr.Store (_, a) ->
        Option.iter note (const_addr regs ~pc a)
    | _ -> ()
  done;
  let addrs = Array.of_list (List.rev !addrs) in
  let width = Array.length addrs in
  let lat = set_array_lattice width in
  let weak_update_all pc fact = Array.map (fun s -> S.add pc s) fact in
  let transfer pc fact =
    match code.(pc) with
    | Instr.Store (_, a) -> (
        match const_addr regs ~pc a with
        | Some addr ->
            let i = Hashtbl.find addr_index addr in
            let fact = Array.copy fact in
            fact.(i) <- S.singleton pc;
            fact
        | None -> weak_update_all pc fact)
    | Instr.Call _ | Instr.Intr (Instr.Randlc, _, _) -> weak_update_all pc fact
    | _ -> fact
  in
  let boundary = Array.make width (S.singleton Reaching.extern_def) in
  let cfg = Cfg.build f in
  let sol = Dataflow.solve ~dir:Dataflow.Forward ~lat ~boundary ~transfer cfg in
  let mem_before =
    Reaching.per_pc_facts cfg ~transfer sol ~bottom:lat.Dataflow.bottom
  in
  { regs; addr_index; addrs; mem_before }

let tracked_addrs (m : mem) : int list = Array.to_list m.addrs

let store_of (m : mem) ~(pc : int) ~(addr : int) : int option =
  match Hashtbl.find_opt m.addr_index addr with
  | None -> None
  | Some i -> (
      if pc < 0 || pc >= Array.length m.mem_before then None
      else
        match S.elements m.mem_before.(pc).(i) with
        | [ d ] when d >= 0 -> (
            match m.regs.func.Prog.code.(d) with
            | Instr.Store (_, areg)
              when const_addr m.regs ~pc:d areg = Some addr ->
                Some d
            | _ -> None)
        | _ -> None)
