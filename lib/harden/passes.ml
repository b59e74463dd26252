(* The four pattern-injection passes; see the mli for the design and
   the fault-free-identity contract each pass maintains.

   The detect-to-trap guard shared by the detector passes is

     eq  <- Eq x y        ; bitwise compare (Value.t is the raw pattern,
     one <- Const 1       ;  so doubles compare exactly and NaN = NaN)
     chk <- Div one eq    ; 1/1 fault-free; 1/0 traps under corruption

   which needs no extra control flow: integer division by zero traps,
   and the VM classifies the trap as Crashed. *)

let guard_code ~(x : Instr.reg) ~(y : Instr.reg) ~(eq : Instr.reg)
    ~(one : Instr.reg) ~(chk : Instr.reg) : Instr.t list =
  [
    Instr.Bin (Op.Eq, eq, x, y);
    Instr.Const (one, 1L);
    Instr.Bin (Op.Div, chk, one, eq);
  ]

(* Apply one function's guard insertions.  Each guard is named by its
   anchor pc and its offset into the anchor's After code, and lands in
   the output just past the anchor. *)
let insert (f : Prog.func) ~nregs ~considered inss changes prot : Pass.work =
  let f', map = Rewrite.apply ~nregs ~insertions:inss f in
  Pass.rewritten
    ~prot:(List.map (fun (anchor, delta) -> map.(anchor) + 1 + delta) prot)
    f' map changes considered

(* -- duplicate_compare -------------------------------------------------- *)

let duplicate_compare : Pass.t =
  Pass.func_pass ~name:"duplicate-compare" ~short:"dup"
    ~doc:
      "duplicate arithmetic in the top-K Vuln.rank regions and trap on \
       result mismatch (SWIFT-style SDC detector)"
    (fun opts p ->
      (* region selection on the whole-program ranking, once *)
      let selected = Array.make (Array.length p.Prog.region_table) false in
      List.iteri
        (fun i (s : Vuln.region_score) ->
          if i < opts.Pass.top_k then selected.(s.Vuln.rid) <- true)
        (Vuln.rank p);
      fun (f : Prog.func) ->
        let nreg = ref f.Prog.nregs and considered = ref 0 in
        let inss = ref [] and changes = ref [] and prot = ref [] in
        Array.iteri
          (fun pc ins ->
            let rid = f.Prog.regions.(pc) in
            if rid >= 0 && rid < Array.length selected && selected.(rid) then
              let dup_with recompute d op_name =
                incr considered;
                let dup = !nreg and eq = !nreg + 1 in
                let one = !nreg + 2 and chk = !nreg + 3 in
                nreg := !nreg + 4;
                (* the duplicate runs first so a dst-aliasing original
                   (r3 <- r3 + r1) still compares against the same
                   operand values *)
                inss :=
                  Rewrite.after pc (guard_code ~x:d ~y:dup ~eq ~one ~chk)
                  :: Rewrite.before pc [ recompute dup ]
                  :: !inss;
                changes :=
                  Pass.change f pc
                    (Printf.sprintf "duplicated %s into r%d, trap on \
                                     mismatch" op_name dup)
                  :: !changes;
                prot := (pc, 0) :: !prot
              in
              match ins with
              | Instr.Bin (op, d, a, b) ->
                  dup_with
                    (fun dup -> Instr.Bin (op, dup, a, b))
                    d (Op.bin_to_string op)
              | Instr.Un (op, d, a) ->
                  dup_with
                    (fun dup -> Instr.Un (op, dup, a))
                    d (Op.un_to_string op)
              | _ -> ())
          f.Prog.code;
        insert f ~nregs:!nreg ~considered:!considered (List.rev !inss)
          (List.rev !changes) (List.rev !prot))

(* -- accumulator_guard -------------------------------------------------- *)

let accumulator_guard : Pass.t =
  Pass.func_pass ~name:"accumulator-guard" ~short:"acc"
    ~doc:
      "load back and re-compare every accumulating store found by the \
       reaching-defs slicer (repeated-additions sites)"
    (fun _opts p ->
      let sites : (string, int list) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (s : Static_detect.site) ->
          let prev =
            Option.value ~default:[]
              (Hashtbl.find_opt sites s.Static_detect.fname)
          in
          Hashtbl.replace sites s.Static_detect.fname
            (s.Static_detect.pc :: prev))
        (Static_detect.analyze p).Static_detect.repeated_adds;
      fun (f : Prog.func) ->
        let pcs =
          List.sort_uniq compare
            (Option.value ~default:[] (Hashtbl.find_opt sites f.Prog.fname))
        in
        let nreg = ref f.Prog.nregs in
        let inss = ref [] and changes = ref [] and prot = ref [] in
        List.iter
          (fun pc ->
            match f.Prog.code.(pc) with
            | Instr.Store (src, addr) ->
                (* Flip_write on a store corrupts the memory word but
                   not the source register, so loading the word back
                   and comparing against [src] is a sound check of
                   the store's data path. *)
                let lb = !nreg and eq = !nreg + 1 in
                let one = !nreg + 2 and chk = !nreg + 3 in
                nreg := !nreg + 4;
                inss :=
                  Rewrite.after pc
                    (Instr.Load (lb, addr)
                    :: guard_code ~x:lb ~y:src ~eq ~one ~chk)
                  :: !inss;
                changes :=
                  Pass.change f pc
                    "accumulating store verified by load-back compare"
                  :: !changes;
                (* the compare, one past the load-back *)
                prot := (pc, 1) :: !prot
            | _ -> ())
          pcs;
        insert f ~nregs:!nreg ~considered:(List.length pcs) (List.rev !inss)
          (List.rev !changes) (List.rev !prot))

(* -- trunc_barrier ------------------------------------------------------ *)

(* No fault-free value in the study programs approaches 1e100, but a
   flip in a high exponent bit of any double overshoots it.  Fgt is
   false on NaN, so NaNs pass the barrier and are left to the
   verification phase. *)
let barrier_bound = 1e100

let trunc_barrier : Pass.t =
  Pass.func_pass ~name:"trunc-barrier" ~short:"trunc"
    ~doc:
      "range barriers on region-exit FP state: trap when a stored \
       double's magnitude exceeds 1e100 (only a corrupted exponent \
       gets there)"
    (fun _opts p (f : Prog.func) ->
      if Array.length f.Prog.code = 0 then Pass.keep f
      else begin
        let rd = Reaching.compute f in
        (* last store per (region, resolved F64 word) *)
        let last : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
        let considered = ref 0 in
        Array.iteri
          (fun pc ins ->
            match ins with
            | Instr.Store (_, addr_reg) -> (
                let rid = f.Prog.regions.(pc) in
                if rid >= 0 then
                  match Reaching.const_addr rd ~pc addr_reg with
                  | Some addr when Prog.type_of_addr p addr = Some Ty.F64 ->
                      incr considered;
                      Hashtbl.replace last (rid, addr) pc
                  | Some _ | None -> ())
            | _ -> ())
          f.Prog.code;
        let picks =
          Hashtbl.fold (fun _ pc acc -> pc :: acc) last []
          |> List.sort_uniq compare
        in
        let nreg = ref f.Prog.nregs in
        let inss = ref [] and changes = ref [] and prot = ref [] in
        List.iter
          (fun pc ->
            match f.Prog.code.(pc) with
            | Instr.Store (_, addr_reg) ->
                let lb = !nreg and ab = !nreg + 1 and bound = !nreg + 2 in
                let gt = !nreg + 3 and z = !nreg + 4 in
                let eq = !nreg + 5 and one = !nreg + 6 and chk = !nreg + 7 in
                nreg := !nreg + 8;
                inss :=
                  Rewrite.after pc
                    ([
                       Instr.Load (lb, addr_reg);
                       Instr.Un (Op.Fabs, ab, lb);
                       Instr.Const (bound, Value.of_float barrier_bound);
                       Instr.Bin (Op.Fgt, gt, ab, bound);
                       Instr.Const (z, 0L);
                     ]
                    @ guard_code ~x:gt ~y:z ~eq ~one ~chk)
                  :: !inss;
                changes :=
                  Pass.change f pc
                    (Printf.sprintf
                       "range barrier (|x| <= %g) after region's last FP \
                        store"
                       barrier_bound)
                  :: !changes;
                (* the Fgt comparison *)
                prot := (pc, 3) :: !prot
            | _ -> ())
          picks;
        insert f ~nregs:!nreg ~considered:!considered (List.rev !inss)
          (List.rev !changes) (List.rev !prot)
      end)

(* -- overwrite_fresh ----------------------------------------------------- *)

(* Def-use webs per register via reaching definitions: two defs of r
   belong to the same web iff some use of r can see both.  Webs with no
   sentinel definition (uninit/param) are fully defined inside the
   function on every path, so they can be renamed to a fresh register
   without changing any observable value.  After renaming, registers
   that die at an instruction are overwritten with zero right after
   their last use — manufacturing Dead Corrupted Location sites: a flip
   landing in a scrubbed register (or in the freshly-split short web it
   no longer shares) is dead on arrival. *)

module UF = struct
  type key = int * int (* register, def site (pc or sentinel) *)

  type t = (key, key) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find (t : t) (k : key) : key =
    match Hashtbl.find_opt t k with
    | None ->
        Hashtbl.replace t k k;
        k
    | Some p when p = k -> k
    | Some p ->
        let r = find t p in
        Hashtbl.replace t k r;
        r

  let union (t : t) (a : key) (b : key) : unit =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb
end

type web = {
  web_reg : int;          (* original register *)
  web_min : int;          (* earliest real def pc, or max_int *)
  web_sentinel : bool;    (* reaches a use straight from entry *)
  mutable web_new : int;  (* assigned register *)
}

let overwrite_fresh_fun (f : Prog.func) : Pass.work =
  let n = Array.length f.Prog.code in
  if n = 0 then Pass.keep f
  else begin
    let rd = Reaching.compute f in
    let uf = UF.create () in
    Array.iteri
      (fun pc ins ->
        List.iter (fun r -> ignore (UF.find uf (r, pc))) (Cfg.defs ins);
        List.iter
          (fun r ->
            match Reaching.defs_of rd ~pc r with
            | [] -> ()
            | d :: rest ->
                ignore (UF.find uf (r, d));
                List.iter (fun d' -> UF.union uf (r, d) (r, d')) rest)
          (Cfg.uses ins))
      f.Prog.code;
    (* gather webs by root *)
    let webs : ((int * int), web) Hashtbl.t = Hashtbl.create 32 in
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) uf [] |> List.sort_uniq compare
    in
    List.iter
      (fun ((r, site) as k) ->
        let root = UF.find uf k in
        let w =
          match Hashtbl.find_opt webs root with
          | Some w -> w
          | None ->
              let w =
                {
                  web_reg = r;
                  web_min = max_int;
                  web_sentinel = false;
                  web_new = r;
                }
              in
              Hashtbl.replace webs root w;
              w
        in
        if site < 0 then
          Hashtbl.replace webs root { w with web_sentinel = true }
        else if site < w.web_min then
          Hashtbl.replace webs root { w with web_min = site })
      keys;
    (* assign registers: sentinel webs keep theirs; the first real web
       keeps the original only when no sentinel web claims it *)
    let by_reg : (int, (int * int) list) Hashtbl.t = Hashtbl.create 32 in
    Hashtbl.iter
      (fun root (w : web) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_reg w.web_reg) in
        Hashtbl.replace by_reg w.web_reg (root :: prev))
      webs;
    let fresh = ref f.Prog.nregs in
    let changes = ref [] in
    let renamed = ref 0 in
    Hashtbl.iter
      (fun reg roots ->
        let ws = List.map (Hashtbl.find webs) roots in
        let has_sentinel = List.exists (fun w -> w.web_sentinel) ws in
        let real =
          List.filter (fun (w : web) -> not w.web_sentinel) ws
          |> List.sort (fun a b -> compare a.web_min b.web_min)
        in
        List.iteri
          (fun i (w : web) ->
            if has_sentinel || i > 0 then begin
              w.web_new <- !fresh;
              incr fresh;
              incr renamed;
              if w.web_min >= 0 && w.web_min < n then
                changes :=
                  Pass.change f w.web_min
                    (Printf.sprintf "split web of r%d into fresh r%d" reg
                       w.web_new)
                  :: !changes
            end)
          real)
      by_reg;
    let web_total = Hashtbl.length webs in
    (* rewrite registers *)
    let def_reg pc r = (Hashtbl.find webs (UF.find uf (r, pc))).web_new in
    let use_reg pc r =
      match Reaching.defs_of rd ~pc r with
      | [] -> r (* unreachable code: leave it alone *)
      | d :: _ -> (Hashtbl.find webs (UF.find uf (r, d))).web_new
    in
    let code =
      Array.mapi
        (fun pc (ins : Instr.t) ->
          let u r = use_reg pc r and d r = def_reg pc r in
          match ins with
          | Instr.Const (x, v) -> Instr.Const (d x, v)
          | Instr.Bin (op, x, a, b) -> Instr.Bin (op, d x, u a, u b)
          | Instr.Un (op, x, a) -> Instr.Un (op, d x, u a)
          | Instr.Load (x, a) -> Instr.Load (d x, u a)
          | Instr.Store (s, a) -> Instr.Store (u s, u a)
          | Instr.Jmp l -> Instr.Jmp l
          | Instr.Bnz (c, l1, l2) -> Instr.Bnz (u c, l1, l2)
          | Instr.Call (fi, args, ret) ->
              Instr.Call (fi, Array.map u args, Option.map d ret)
          | Instr.Ret r -> Instr.Ret (Option.map u r)
          | Instr.Intr (i, args, ret) ->
              Instr.Intr (i, Array.map u args, Option.map d ret)
          | Instr.Mark m -> Instr.Mark m)
        f.Prog.code
    in
    let f1 = { f with Prog.code; nregs = !fresh } in
    (* scrub registers at their death points *)
    let cfg = Cfg.build f1 in
    let lv = Liveness.compute ~cfg f1 in
    let inss = ref [] in
    let prot = ref [] in
    let scrubs = ref 0 in
    Array.iteri
      (fun pc ins ->
        if not (Cfg.is_terminator ins) then begin
          let defs = Cfg.defs ins in
          let dying =
            Cfg.uses ins
            |> List.sort_uniq compare
            |> List.filter (fun r ->
                   (not (Liveness.is_live_after lv ~pc r))
                   && not (List.mem r defs))
          in
          if dying <> [] then begin
            inss :=
              Rewrite.after pc (List.map (fun r -> Instr.Const (r, 0L)) dying)
              :: !inss;
            List.iteri (fun j _ -> prot := (pc, j) :: !prot) dying;
            scrubs := !scrubs + List.length dying
          end
        end)
      f1.Prog.code;
    let changes =
      if !scrubs > 0 then
        Pass.change f 0
          (Printf.sprintf "scrubbed %d dead register(s) after their last \
                           use" !scrubs)
        :: List.rev !changes
      else List.rev !changes
    in
    {
      (insert f1 ~nregs:!fresh ~considered:web_total (List.rev !inss) changes
         (List.rev !prot))
      with
      Pass.w_changed = !renamed + !scrubs;
    }
  end

let overwrite_fresh : Pass.t =
  Pass.func_pass ~name:"overwrite-fresh" ~short:"fresh"
    ~doc:
      "split reused temporaries into fresh registers (one per def-use \
       web) and overwrite dying registers with zero after their last \
       use (automatic harden_dcl)"
    (fun _ _ -> overwrite_fresh_fun)

(* -- registry ------------------------------------------------------------ *)

let all : Pass.t list =
  [ duplicate_compare; accumulator_guard; trunc_barrier; overwrite_fresh ]
