(* Dataflow-driven IR optimizer: every rewrite is justified by an
   analysis from lib/static and the whole pipeline is gated by the
   harden Verify infrastructure plus a fault-free output-identity
   check.  Each pass returns a Sitemap so reference-level fault sites
   can be translated onto the optimized program. *)

exception Identity_failed of { passes : string list; reason : string }

let () =
  Printexc.register_printer (function
    | Identity_failed { passes; reason } ->
        Some
          (Printf.sprintf
             "optimizer pipeline [%s] failed the fault-free identity gate: %s"
             (String.concat "; " passes) reason)
    | _ -> None)

(* --- the fixpoint driver -------------------------------------------------- *)

(* A rewrite round on one function: the rewrite and its change records,
   or None when nothing changed, plus the sites it considered. *)
type round =
  Prog.func -> (Prog.func * int array * Pass.site_change list) option * int

let round_result ?nregs ?insertions (f : Prog.func) repl changes considered =
  if changes = [] then (None, considered)
  else
    let f', map = Rewrite.apply ?nregs ?insertions ~replace:repl f in
    (Some (f', map, List.rev changes), considered)

(* Repeat a round until it changes nothing or [rounds] rewrites were
   made, composing the maps; the work's [considered] is the largest
   round's. *)
let fixpoint ~rounds (round : round) (f : Prog.func) : Pass.work =
  let rec go f map changes considered rounds =
    match round f with
    | None, c -> Pass.rewritten f map changes (max considered c)
    | Some (f', m, ch), c ->
        let map = Array.map (fun p -> if p < 0 then -1 else m.(p)) map in
        let changes = changes @ ch and considered = max considered c in
        if rounds <= 1 then Pass.rewritten f' map changes considered
        else go f' map changes considered (rounds - 1)
  in
  if Array.length f.Prog.code = 0 then Pass.keep f
  else go f (Array.init (Array.length f.Prog.code) Fun.id) [] 0 rounds

(* A single-round pass: an unchanged function reports nothing
   considered. *)
let once (f : Prog.func) repl changes considered : Pass.work =
  match round_result f repl changes considered with
  | None, _ -> Pass.keep f
  | Some (f', map, ch), c -> Pass.rewritten f' map ch c

(* --- constant folding (sparse constant propagation) --------------------- *)

let fold_round (f : Prog.func) :
    (Prog.func * int array * Pass.site_change list) option * int =
  let cp = Constprop.compute f in
  let n = Array.length f.Prog.code in
  let repl = Array.make n None in
  let considered = ref 0 and changes = ref [] in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Instr.Bin (op, d, a, b) -> (
          incr considered;
          match (Constprop.const_of cp ~pc a, Constprop.const_of cp ~pc b) with
          | Some x, Some y -> (
              match Op.eval_bin op x y with
              | k ->
                  repl.(pc) <- Some [ Instr.Const (d, k) ];
                  changes :=
                    Pass.change f pc
                      (Printf.sprintf "folded %s to 0x%Lx"
                         (Op.bin_to_string op) k)
                    :: !changes
              | exception Op.Trap _ -> ())
          | _ -> ())
      | Instr.Un (op, d, a) -> (
          incr considered;
          match Constprop.const_of cp ~pc a with
          | Some x -> (
              match Op.eval_un op x with
              | k ->
                  repl.(pc) <- Some [ Instr.Const (d, k) ];
                  changes :=
                    Pass.change f pc
                      (Printf.sprintf "folded %s to 0x%Lx" (Op.un_to_string op)
                         k)
                    :: !changes
              | exception Op.Trap _ -> ())
          | None -> ())
      | Instr.Bnz (c, l1, l2) -> (
          incr considered;
          match Constprop.const_of cp ~pc c with
          | Some k ->
              let l = if Int64.equal k 0L then l2 else l1 in
              repl.(pc) <- Some [ Instr.Jmp l ];
              changes :=
                Pass.change f pc
                  (Printf.sprintf "branch decided, always to %d" l)
                :: !changes
          | None -> ())
      | _ -> ())
    f.Prog.code;
  round_result f (fun pc -> repl.(pc)) !changes !considered

let fold_pass =
  Pass.func_pass ~name:"constfold" ~short:"fold"
    ~doc:
      "fold operations whose operands the constant lattice proves \
       constant; decide branches on constant conditions (never folds a \
       trapping operation)"
    (fun _ _ -> fixpoint ~rounds:3 fold_round)

(* --- algebraic simplification / strength reduction ---------------------- *)

(* Integer identities only: float arithmetic identities (x+0.0, x*1.0)
   are not bit-exact in general (-0.0, NaN), and the identity gate
   would rightly reject them. *)

let copy_of d s = Instr.Bin (Op.Or, d, s, s)

let simp_func (f : Prog.func) : Pass.work =
  if Array.length f.Prog.code = 0 then Pass.keep f
  else begin
    let cp = Constprop.compute f in
    let n = Array.length f.Prog.code in
    let repl = Array.make n None in
    let considered = ref 0 and changes = ref [] in
    let put pc ins note =
      if ins <> f.Prog.code.(pc) then begin
        repl.(pc) <- Some [ ins ];
        changes := Pass.change f pc note :: !changes
      end
    in
    Array.iteri
      (fun pc ins ->
        match ins with
        | Instr.Bin (op, d, a, b) -> (
            incr considered;
            let ca = Constprop.const_of cp ~pc a in
            let cb = Constprop.const_of cp ~pc b in
            let is v c = match c with Some k -> Int64.equal k v | None -> false in
            match op with
            | Op.Add ->
                if is 0L cb then put pc (copy_of d a) "x + 0"
                else if is 0L ca then put pc (copy_of d b) "0 + x"
            | Op.Sub -> if is 0L cb then put pc (copy_of d a) "x - 0"
            | Op.Mul ->
                if is 0L ca || is 0L cb then
                  put pc (Instr.Const (d, 0L)) "x * 0"
                else if is 1L cb then put pc (copy_of d a) "x * 1"
                else if is 1L ca then put pc (copy_of d b) "1 * x"
            | Op.Div -> if is 1L cb then put pc (copy_of d a) "x / 1"
            | Op.Rem -> if is 1L cb then put pc (Instr.Const (d, 0L)) "x rem 1"
            | Op.Or ->
                if a = b then ()
                else if is 0L cb then put pc (copy_of d a) "x | 0"
                else if is 0L ca then put pc (copy_of d b) "0 | x"
            | Op.And ->
                if a = b then put pc (copy_of d a) "x & x"
                else if is (-1L) cb then put pc (copy_of d a) "x & -1"
                else if is (-1L) ca then put pc (copy_of d b) "-1 & x"
                else if is 0L ca || is 0L cb then
                  put pc (Instr.Const (d, 0L)) "x & 0"
            | Op.Xor ->
                if a = b then put pc (Instr.Const (d, 0L)) "x ^ x"
                else if is 0L cb then put pc (copy_of d a) "x ^ 0"
                else if is 0L ca then put pc (copy_of d b) "0 ^ x"
            | Op.Shl | Op.Lshr | Op.Ashr ->
                if is 0L cb then put pc (copy_of d a) "x shift 0"
            | Op.Imin | Op.Imax ->
                if a = b then put pc (copy_of d a) "min/max(x, x)"
            | Op.Eq | Op.Le | Op.Ge ->
                if a = b then put pc (Instr.Const (d, 1L)) "x cmp x"
            | Op.Ne | Op.Lt | Op.Gt ->
                if a = b then put pc (Instr.Const (d, 0L)) "x cmp x"
            | _ -> ())
        | _ -> ())
      f.Prog.code;
    once f (fun pc -> repl.(pc)) !changes !considered
  end

let simp_pass =
  Pass.func_pass ~name:"simplify" ~short:"simp"
    ~doc:
      "algebraic identities and strength reduction on integer operations \
       (x+0, x*1, x^x, shift-by-0, ...), justified by the constant \
       lattice; float identities are excluded for bit-exactness"
    (fun _ _ -> simp_func)

(* --- block-local common-subexpression elimination ------------------------ *)

(* Straight-line value numbering: inside one basic block, a pure
   [Bin]/[Un] whose (op, operands) were already computed into a still-
   valid register becomes a copy of that register.  Validity is killed
   by any redefinition of an operand or of the holding register, so the
   justification is purely block-local reaching.  If the reused
   occurrence could trap, the first occurrence with the same operands
   already trapped first, so fault-free behavior is unchanged.  The
   copies left behind feed copy propagation and die in dce. *)

let cse_func (f : Prog.func) : Pass.work =
  let n = Array.length f.Prog.code in
  if n = 0 then Pass.keep f
  else begin
    let cfg = Cfg.build f in
    let repl = Array.make n None in
    let considered = ref 0 and changes = ref [] in
    Array.iter
      (fun (b : Cfg.block) ->
        (* ((tag, a, b), holder): dead once holder or an operand is
           redefined; blocks are short, a list is fine *)
        let tbl = ref [] in
        let kill r =
          tbl :=
            List.filter
              (fun ((_, a, b'), v) -> v <> r && a <> r && b' <> r)
              !tbl
        in
        let reuse pc key d add_self =
          incr considered;
          match List.assoc_opt key !tbl with
          | Some r when r <> d ->
              repl.(pc) <- Some [ copy_of d r ];
              changes :=
                Pass.change f pc
                  (Printf.sprintf "recomputation reuses r%d (local cse)" r)
                :: !changes;
              kill d
          | Some _ | None ->
              kill d;
              if add_self then tbl := (key, d) :: !tbl
        in
        for pc = b.Cfg.first to b.Cfg.last do
          match f.Prog.code.(pc) with
          | Instr.Bin (op, d, a, b') ->
              reuse pc
                ("b" ^ Op.bin_to_string op, a, b')
                d
                (d <> a && d <> b')
          | Instr.Un (op, d, a) ->
              reuse pc ("u" ^ Op.un_to_string op, a, -1) d (d <> a)
          | ins -> List.iter kill (Cfg.defs ins)
        done)
      cfg.Cfg.blocks;
    once f (fun pc -> repl.(pc)) !changes !considered
  end

let cse_pass =
  Pass.func_pass ~name:"local-cse" ~short:"cse"
    ~doc:
      "block-local value numbering: a pure operation recomputing an \
       expression a still-valid register already holds becomes a copy of \
       that register (straight-line reaching inside one block)"
    (fun _ _ -> cse_func)

(* --- redundant-load elimination ----------------------------------------- *)

let rle_func (p : Prog.t) (f : Prog.func) : Pass.work =
  if Array.length f.Prog.code = 0 then Pass.keep f
  else begin
    let rd = Reaching.compute f in
    let cp = Constprop.compute f in
    let al = Alias.make p f ~rd ~cp in
    let av = Avail.compute ~rd ~store_range:(Alias.store_range al) f in
    let n = Array.length f.Prog.code in
    let repl = Array.make n None in
    let considered = ref 0 and changes = ref [] in
    Array.iteri
      (fun pc ins ->
        match ins with
        | Instr.Load (d, areg) -> (
            match Reaching.const_addr rd ~pc areg with
            | Some a -> (
                incr considered;
                match Avail.holder_of av ~pc ~addr:a with
                | Some r ->
                    repl.(pc) <- Some [ copy_of d r ];
                    changes :=
                      Pass.change f pc
                        (Printf.sprintf "load of word %d forwarded from r%d" a
                           r)
                      :: !changes
                | None -> ())
            | None -> ())
        | _ -> ())
      f.Prog.code;
    once f (fun pc -> repl.(pc)) !changes !considered
  end

let rle_pass =
  Pass.func_pass ~name:"redundant-load-elim" ~short:"rle"
    ~doc:
      "replace a load of a constant-addressed word with a register copy \
       when the available-loads analysis proves a register already holds \
       that word (includes store-to-load forwarding)"
    (fun _ -> rle_func)

(* --- copy propagation ---------------------------------------------------- *)

let is_copy code pc =
  match code.(pc) with
  | Instr.Bin ((Op.Or | Op.And), d, s, s') when s = s' && d <> s -> Some (d, s)
  | _ -> None

let subst_uses sub (ins : Instr.t) : Instr.t =
  match ins with
  | Instr.Bin (op, d, a, b) -> Instr.Bin (op, d, sub a, sub b)
  | Instr.Un (op, d, a) -> Instr.Un (op, d, sub a)
  | Instr.Load (d, a) -> Instr.Load (d, sub a)
  | Instr.Store (s, a) -> Instr.Store (sub s, sub a)
  | Instr.Bnz (c, l1, l2) -> Instr.Bnz (sub c, l1, l2)
  | Instr.Call (fi, args, ret) -> Instr.Call (fi, Array.map sub args, ret)
  | Instr.Ret (Some r) -> Instr.Ret (Some (sub r))
  | Instr.Intr (i, args, ret) -> Instr.Intr (i, Array.map sub args, ret)
  | Instr.Const _ | Instr.Jmp _ | Instr.Ret None | Instr.Mark _ -> ins

let copy_func (f : Prog.func) : Pass.work =
  if Array.length f.Prog.code = 0 then Pass.keep f
  else begin
    let cfg = Cfg.build f in
    let cps = Avail.compute_copies ~cfg f ~is_copy:(is_copy f.Prog.code) in
    let n = Array.length f.Prog.code in
    let repl = Array.make n None in
    let considered = ref 0 and changes = ref [] in
    Array.iteri
      (fun pc ins ->
        if Cfg.uses ins <> [] then begin
          incr considered;
          let sub r =
            match Avail.copy_source cps ~pc r with Some s -> s | None -> r
          in
          let ins' = subst_uses sub ins in
          if ins' <> ins then begin
            repl.(pc) <- Some [ ins' ];
            changes := Pass.change f pc "copy-propagated operands" :: !changes
          end
        end)
      f.Prog.code;
    once f (fun pc -> repl.(pc)) !changes !considered
  end

let copy_pass =
  Pass.func_pass ~name:"copyprop" ~short:"copy"
    ~doc:
      "rewrite operand reads to the copy source when the reaching-\
       definitions-based available-copies analysis proves the registers \
       equal on every path"
    (fun _ _ -> copy_func)

(* --- loop legality shared by hoisting and promotion ---------------------- *)

(* The analyses both loop passes start from, and the natural loops
   innermost first (so a value escapes one level per round), each with
   its header block and pc-membership test.  Only loops a preheader can
   be built for are kept: the header must be the unique loop entry
   (reducible) and every in-loop edge into it must be an explicit
   branch, so that the preheader code can be skipped exactly by the
   back edges.  None when the function has no loops. *)
let loop_context (p : Prog.t) (f : Prog.func) =
  let cfg = Cfg.build f in
  match Cfg.natural_loops cfg with
  | [] -> None
  | loops ->
      let rd = Reaching.compute f in
      let cp = Constprop.compute f in
      let al = Alias.make p f ~rd ~cp in
      let idoms = Cfg.idoms cfg in
      let loop_size (l : Cfg.loop) =
        Array.fold_left (fun a m -> if m then a + 1 else a) 0 l.Cfg.members
      in
      let viable (l : Cfg.loop) =
        Array.for_all
          (fun b ->
            (not l.Cfg.members.(b)) || Cfg.dominates idoms l.Cfg.header b)
          (Array.init (Array.length l.Cfg.members) Fun.id)
        && List.for_all
             (fun pr ->
               (not l.Cfg.members.(pr))
               || Cfg.is_terminator f.Prog.code.(cfg.Cfg.blocks.(pr).Cfg.last))
             cfg.Cfg.blocks.(l.Cfg.header).Cfg.preds
      in
      let loops =
        List.sort (fun a b -> compare (loop_size a) (loop_size b)) loops
        |> List.filter viable
        |> List.map (fun (l : Cfg.loop) ->
               ( l,
                 cfg.Cfg.blocks.(l.Cfg.header),
                 fun pc -> l.Cfg.members.(cfg.Cfg.block_of.(pc)) ))
      in
      Some (cfg, rd, al, loops)

(* --- loop-invariant constant hoisting ------------------------------------ *)

let hoist_round (p : Prog.t) (f : Prog.func) =
  match loop_context p f with
  | None -> (None, 0)
  | Some (_, rd, al, loops) ->
    let n = Array.length f.Prog.code in
    (* uses of each register, precomputed: reg -> use pcs *)
    let use_sites = Array.make f.Prog.nregs [] in
    Array.iteri
      (fun pc ins ->
        List.iter
          (fun r -> use_sites.(r) <- pc :: use_sites.(r))
          (Cfg.uses ins))
      f.Prog.code;
    let considered = ref 0 and changes = ref [] in
    let claimed = Array.make n false in
    let fresh = ref f.Prog.nregs in
    let subst : (int * Instr.reg, Instr.reg) Hashtbl.t = Hashtbl.create 64 in
    let insertions = ref [] in
    List.iter
      (fun ((l : Cfg.loop), (hb : Cfg.block), members_pc) ->
        (* memory effects of the loop, for load-invariance: loads are
           hoistable only when nothing in the loop can write their
           word — exact for constant addresses, object extents from
           the alias analysis for computed ones *)
        let mem_opaque = ref false in
        let stored_addrs = ref [] in
        let stored_extents = ref [] in
        for pc = 0 to n - 1 do
          if members_pc pc then
            match f.Prog.code.(pc) with
            | Instr.Call _ -> mem_opaque := true
            | Instr.Intr (Instr.Randlc, args, _) -> (
                match
                  if Array.length args = 0 then None
                  else Reaching.const_addr rd ~pc args.(0)
                with
                | Some a -> stored_addrs := a :: !stored_addrs
                | None -> mem_opaque := true)
            | Instr.Intr _ -> () (* print/mpi touch registers only *)
            | Instr.Store (_, areg) -> (
                match Reaching.const_addr rd ~pc areg with
                | Some a -> stored_addrs := a :: !stored_addrs
                | None -> (
                    match Alias.extent_of al ~pc areg with
                    | Some e -> stored_extents := e :: !stored_extents
                    | None -> mem_opaque := true))
            | _ -> ()
        done;
        let loop_may_write a =
          List.mem a !stored_addrs
          || List.exists (fun e -> Alias.touches e a) !stored_extents
        in
        (* can all uses of r be redirected from its def at pc alone? *)
        let sole_def pc r =
          let uses =
            List.filter
              (fun u -> List.mem pc (Reaching.defs_of rd ~pc:u r))
              use_sites.(r)
          in
          if
            uses <> []
            && List.for_all
                 (fun u -> Reaching.defs_of rd ~pc:u r = [ pc ])
                 uses
          then Some uses
          else None
        in
        (* candidates: in-loop Const defs, and loads of words the loop
           provably never writes, that uniquely reach all their uses *)
        let by_const : (int64, Instr.reg) Hashtbl.t = Hashtbl.create 8 in
        let by_load : (int, Instr.reg) Hashtbl.t = Hashtbl.create 8 in
        let code = ref [] in
        for pc = 0 to n - 1 do
          if members_pc pc && not claimed.(pc) then
            match f.Prog.code.(pc) with
            | Instr.Const (r, k) -> (
                incr considered;
                match sole_def pc r with
                | Some uses ->
                    claimed.(pc) <- true;
                    let r' =
                      match Hashtbl.find_opt by_const k with
                      | Some r' -> r'
                      | None ->
                          let r' = !fresh in
                          incr fresh;
                          Hashtbl.add by_const k r';
                          code := Instr.Const (r', k) :: !code;
                          r'
                    in
                    List.iter
                      (fun u -> Hashtbl.replace subst (u, r) r')
                      uses;
                    changes :=
                      Pass.change f pc
                        (Printf.sprintf
                           "const 0x%Lx hoisted to preheader of block %d" k
                           l.Cfg.header)
                      :: !changes
                | None -> ())
            | Instr.Load (r, areg) when not !mem_opaque -> (
                match Reaching.const_addr rd ~pc areg with
                | Some a when not (loop_may_write a) -> (
                    incr considered;
                    match sole_def pc r with
                    | Some uses ->
                        claimed.(pc) <- true;
                        let r' =
                          match Hashtbl.find_opt by_load a with
                          | Some r' -> r'
                          | None ->
                              let ra = !fresh in
                              let r' = !fresh + 1 in
                              fresh := !fresh + 2;
                              Hashtbl.add by_load a r';
                              code :=
                                Instr.Load (r', ra)
                                :: Instr.Const (ra, Int64.of_int a)
                                :: !code;
                              r'
                        in
                        List.iter
                          (fun u -> Hashtbl.replace subst (u, r) r')
                          uses;
                        changes :=
                          Pass.change f pc
                            (Printf.sprintf
                               "loop-invariant load of word %d hoisted to \
                                preheader of block %d"
                               a l.Cfg.header)
                          :: !changes
                    | None -> ())
                | _ -> ())
            | _ -> ()
        done;
        if !code <> [] then
          insertions :=
            Rewrite.before
              ~via:(fun src -> not (members_pc src))
              hb.Cfg.first (List.rev !code)
            :: !insertions)
      loops;
    if !changes = [] then (None, !considered)
    else
      let repl pc =
        let ins = f.Prog.code.(pc) in
        let sub r =
          match Hashtbl.find_opt subst (pc, r) with Some r' -> r' | None -> r
        in
        let ins' = subst_uses sub ins in
        if ins' <> ins then Some [ ins' ] else None
      in
      round_result ~nregs:!fresh ~insertions:(List.rev !insertions) f repl
        !changes !considered

let hoist_pass =
  Pass.func_pass ~name:"loop-hoist" ~short:"hoist"
    ~doc:
      "hoist loop-invariant constant materializations to a freshly built \
       preheader, justified by natural-loop detection, dominators and \
       unique reaching definitions (the originals die and fall to dce)"
    (fun _ p -> fixpoint ~rounds:6 (hoist_round p))

(* --- scalar promotion (register-caching of loop scalars) ----------------- *)

(* A scalar word read inside a loop is cached in a fresh register
   loaded once in the preheader; in-loop loads of the word become
   register copies and in-loop stores refresh the cache.  Soundness
   needs exactly one fact: nothing else in the loop can write the word
   — constant-addressed stores are grouped by word, computed-address
   stores are bounded by the alias analysis's object extents, randlc
   writes only its (resolved) state word, and loops containing calls
   are skipped.

   Stores come in two modes.  By default they keep writing memory
   while refreshing the cache, so memory stays current at every point
   and nothing else needs proving.  When the loop additionally proves
   that nothing in it can READ the word through a computed address,
   never returns from inside, and every exit lands on a block whose
   only fall-through predecessor is the loop itself, the store is
   sunk: in-loop stores become pure cache updates and a single
   write-back is inserted on every exit edge, entered exactly by the
   loop's own branches (Rewrite.before's via).  Memory is stale for
   the word only while the loop runs, when provably nobody looks. *)

let promote_round (p : Prog.t) (f : Prog.func) =
  match loop_context p f with
  | None -> (None, 0)
  | Some (cfg, rd, al, loops) ->
    let n = Array.length f.Prog.code in
    let considered = ref 0 and changes = ref [] in
    let fresh = ref f.Prog.nregs in
    let repl = Array.make n None in
    (* write-backs must come before preheaders at a shared anchor, so a
       branch leaving one loop syncs before the next loop's preheader
       reloads the word *)
    let pre_inserts = ref [] and sync_inserts = ref [] in
    (* each word promoted at most once per round, innermost loop wins;
       the next round can promote the preheader load one level out *)
    let promoted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    (* anchor pc -> member sets already writing back there: stacked
       write-backs at one anchor are only sound for nested loops, where
       falling through an inner sync into an outer one is exactly the
       order in which both caches are valid *)
    let sync_claims : (int, bool array list) Hashtbl.t = Hashtbl.create 8 in
    let subset a b =
      let ok = ref true in
      Array.iteri (fun i m -> if m && not b.(i) then ok := false) a;
      !ok
    in
    List.iter
      (fun ((l : Cfg.loop), (hb : Cfg.block), members_pc) ->
        (* memory effects of the loop *)
        let opaque = ref false in
        let has_ret = ref false in
        let randlc_words = ref [] in
        let store_extents = ref [] and load_extents = ref [] in
        let dyn_load_unknown = ref false in
        let loads_by_word : (int, (int * Instr.reg) list) Hashtbl.t =
          Hashtbl.create 8
        in
        let stores_by_word : (int, (int * Instr.reg * Instr.reg) list)
            Hashtbl.t =
          Hashtbl.create 8
        in
        for pc = 0 to n - 1 do
          if members_pc pc then
            match f.Prog.code.(pc) with
            | Instr.Call _ -> opaque := true
            | Instr.Ret _ -> has_ret := true
            | Instr.Intr (Instr.Randlc, args, _) -> (
                match
                  if Array.length args = 0 then None
                  else Reaching.const_addr rd ~pc args.(0)
                with
                | Some a -> randlc_words := a :: !randlc_words
                | None -> opaque := true)
            | Instr.Intr _ -> ()
            | Instr.Store (s, areg) -> (
                match Reaching.const_addr rd ~pc areg with
                | Some a ->
                    Hashtbl.replace stores_by_word a
                      ((pc, s, areg)
                      :: Option.value ~default:[]
                           (Hashtbl.find_opt stores_by_word a))
                | None -> (
                    match Alias.extent_of al ~pc areg with
                    | Some e -> store_extents := e :: !store_extents
                    | None -> opaque := true))
            | Instr.Load (d, areg) -> (
                match Reaching.const_addr rd ~pc areg with
                | Some a ->
                    Hashtbl.replace loads_by_word a
                      ((pc, d)
                      :: Option.value ~default:[]
                           (Hashtbl.find_opt loads_by_word a))
                | None -> (
                    match Alias.extent_of al ~pc areg with
                    | Some e -> load_extents := e :: !load_extents
                    | None -> dyn_load_unknown := true))
            | _ -> ()
        done;
        (* the exit anchors: first pc of every non-member successor
           block.  Write-backs there are enterable only by the loop's
           own branches, so any fall-through predecessor must itself
           be a member *)
        let exit_anchors = ref [] in
        let anchors_ok = ref true in
        Array.iteri
          (fun b (blk : Cfg.block) ->
            if l.Cfg.members.(b) then
              List.iter
                (fun s ->
                  if not l.Cfg.members.(s) then begin
                    let a = cfg.Cfg.blocks.(s).Cfg.first in
                    if not (List.mem a !exit_anchors) then begin
                      exit_anchors := a :: !exit_anchors;
                      if
                        a > 0
                        && (not (Cfg.is_terminator f.Prog.code.(a - 1)))
                        && not (members_pc (a - 1))
                      then anchors_ok := false
                    end
                  end)
                blk.Cfg.succs)
          cfg.Cfg.blocks;
        let claims_ok =
          List.for_all
            (fun a ->
              match Hashtbl.find_opt sync_claims a with
              | None -> true
              | Some sets ->
                  List.for_all
                    (fun c ->
                      subset c l.Cfg.members || subset l.Cfg.members c)
                    sets)
            !exit_anchors
        in
        let loop_sinkable =
          (not !has_ret) && (not !dyn_load_unknown) && !anchors_ok
          && claims_ok
        in
        if not !opaque then
          (* candidates: words the loop reads through a constant
             address that neither a computed-address store's object
             extent nor a randlc state update can touch; constant-
             addressed stores are fine — they refresh the cache *)
          Hashtbl.iter
            (fun w loads ->
              incr considered;
              if
                (not (Hashtbl.mem promoted w))
                && (not (List.mem w !randlc_words))
                && not
                     (List.exists
                        (fun e -> Alias.touches e w)
                        !store_extents)
              then begin
                Hashtbl.add promoted w ();
                let ra = !fresh and rc = !fresh + 1 in
                fresh := !fresh + 2;
                pre_inserts :=
                  Rewrite.before
                    ~via:(fun src -> not (members_pc src))
                    hb.Cfg.first
                    [
                      Instr.Const (ra, Int64.of_int w); Instr.Load (rc, ra);
                    ]
                  :: !pre_inserts;
                List.iter
                  (fun (pc, d) ->
                    repl.(pc) <- Some [ copy_of d rc ];
                    changes :=
                      Pass.change f pc
                        (Printf.sprintf
                           "load of word %d served from loop cache r%d" w rc)
                      :: !changes)
                  loads;
                let stores =
                  Option.value ~default:[]
                    (Hashtbl.find_opt stores_by_word w)
                in
                let sink =
                  loop_sinkable && stores <> []
                  && not
                       (List.exists
                          (fun e -> Alias.touches e w)
                          !load_extents)
                in
                if sink then begin
                  List.iter
                    (fun a ->
                      Hashtbl.replace sync_claims a
                        (l.Cfg.members
                        :: Option.value ~default:[]
                             (Hashtbl.find_opt sync_claims a));
                      sync_inserts :=
                        Rewrite.before ~via:members_pc a
                          [ Instr.Store (rc, ra) ]
                        :: !sync_inserts)
                    !exit_anchors;
                  List.iter
                    (fun (pc, s, _) ->
                      repl.(pc) <- Some [ copy_of rc s ];
                      changes :=
                        Pass.change f pc
                          (Printf.sprintf
                             "store to word %d sunk to loop exits via cache \
                              r%d"
                             w rc)
                        :: !changes)
                    stores
                end
                else
                  List.iter
                    (fun (pc, s, areg) ->
                      (* store first so the fault-site map lands on the
                         memory write, then refresh the cache *)
                      repl.(pc) <-
                        Some [ Instr.Store (s, areg); copy_of rc s ];
                      changes :=
                        Pass.change f pc
                          (Printf.sprintf
                             "store to word %d also refreshes loop cache \
                              r%d"
                             w rc)
                        :: !changes)
                    stores
              end)
            loads_by_word)
      loops;
    round_result ~nregs:!fresh
      ~insertions:(List.rev !sync_inserts @ List.rev !pre_inserts)
      f
      (fun pc -> repl.(pc))
      !changes !considered

let promote_pass =
  Pass.func_pass ~name:"scalar-promote" ~short:"promote"
    ~doc:
      "cache loop scalars in registers: a word read in a loop is loaded \
       once in the preheader, loads become copies and stores refresh the \
       cache while still writing memory; justified by dominators, \
       reaching definitions and the object-extent alias analysis"
    (fun _ p -> fixpoint ~rounds:4 (promote_round p))

(* --- copy coalescing ------------------------------------------------------ *)

(* The complement of copy propagation for copies it cannot touch: a
   pure definition `s <- op ...` whose value is consumed ONLY by a
   same-block copy `d <- s` is re-targeted to define d directly and
   the copy is deleted.  Promotion and hoisting leave exactly this
   shape behind for loop-carried registers (`r' <- add r k; r <- r'`),
   where propagation fails because the equality does not hold on the
   loop entry edge.  Justified by reaching definitions: no other use
   reads the def's value, the copy is the def's unique consumer, and d
   is neither read nor written between the two. *)

let coalesce_round (f : Prog.func) :
    (Prog.func * int array * Pass.site_change list) option * int =
  let n = Array.length f.Prog.code in
  if n = 0 then (None, 0)
  else begin
    let rd = Reaching.compute f in
    let cfg = Reaching.cfg rd in
    let code = f.Prog.code in
    let use_sites = Array.make f.Prog.nregs [] in
    Array.iteri
      (fun pc ins ->
        List.iter (fun r -> use_sites.(r) <- pc :: use_sites.(r)) (Cfg.uses ins))
      code;
    let considered = ref 0 and changes = ref [] in
    let repl = Array.make n None in
    let touched = Array.make n false in
    let retarget d ins =
      match ins with
      | Instr.Const (_, k) -> Some (Instr.Const (d, k))
      | Instr.Bin (op, _, a, b) -> Some (Instr.Bin (op, d, a, b))
      | Instr.Un (op, _, a) -> Some (Instr.Un (op, d, a))
      | Instr.Load (_, a) -> Some (Instr.Load (d, a))
      | _ -> None
    in
    Array.iteri
      (fun c ins ->
        match ins with
        | Instr.Bin ((Op.Or | Op.And), d, s, s') when s = s' && d <> s -> (
            incr considered;
            match Reaching.unique_def rd ~pc:c s with
            | Some dd
              when dd >= 0 && dd < c
                   && cfg.Cfg.block_of.(dd) = cfg.Cfg.block_of.(c)
                   && (not touched.(dd))
                   && not touched.(c) -> (
                match retarget d code.(dd) with
                | Some ins' when List.hd (Cfg.defs code.(dd)) = s ->
                    (* d untouched strictly between def and copy, and the
                       def's value reaches no use but the copy *)
                    let clear = ref true in
                    for pc = dd + 1 to c - 1 do
                      let i = code.(pc) in
                      if
                        List.mem d (Cfg.defs i)
                        || List.mem d (Cfg.uses i)
                      then clear := false
                    done;
                    if
                      !clear
                      && List.for_all
                           (fun u ->
                             u = c
                             || not (List.mem dd (Reaching.defs_of rd ~pc:u s)))
                           use_sites.(s)
                    then begin
                      touched.(dd) <- true;
                      touched.(c) <- true;
                      repl.(dd) <- Some [ ins' ];
                      repl.(c) <- Some [];
                      changes :=
                        Pass.change f c
                          (Printf.sprintf
                             "copy absorbed into its defining instruction at \
                              pc %d"
                             dd)
                        :: !changes
                    end
                | Some _ | None -> ())
            | Some _ | None -> ())
        | _ -> ())
      code;
    round_result f (fun pc -> repl.(pc)) !changes !considered
  end

let coalesce_pass =
  Pass.func_pass ~name:"coalesce" ~short:"coal"
    ~doc:
      "absorb a register copy into its defining instruction when reaching \
       definitions prove the copy is the definition's only consumer and \
       the target register is untouched in between — the loop-carried \
       shape promotion and hoisting leave behind"
    (fun _ _ -> fixpoint ~rounds:4 coalesce_round)

(* --- dead-code elimination ----------------------------------------------- *)

let dce_round (f : Prog.func) :
    (Prog.func * int array * Pass.site_change list) option * int =
  let cfg = Cfg.build f in
  let lv = Liveness.compute ~cfg f in
  let rd = Reaching.compute f in
  let ml = Liveness.compute_mem rd f in
  let reach = Cfg.reachable_pcs cfg in
  let n = Array.length f.Prog.code in
  let del = Array.make n false in
  let considered = ref 0 and changes = ref [] in
  Array.iteri
    (fun pc ins ->
      (* the final instruction is kept unconditionally so a function
         body never empties and falloff structure is preserved *)
      if (not reach.(pc)) && pc < n - 1 then begin
        del.(pc) <- true;
        changes := Pass.change f pc "unreachable" :: !changes
      end
      else
        match ins with
        | Instr.Jmp l when l = pc + 1 && pc < n - 1 ->
            incr considered;
            del.(pc) <- true;
            changes := Pass.change f pc "jump to next instruction" :: !changes
        | Instr.Bin ((Op.Or | Op.And), d, a, b) when d = a && a = b ->
            incr considered;
            del.(pc) <- true;
            changes := Pass.change f pc "no-op self copy" :: !changes
        | Instr.Const (d, _)
        | Instr.Bin (_, d, _, _)
        | Instr.Un (_, d, _)
        | Instr.Load (d, _) ->
            incr considered;
            if not (Liveness.is_live_after lv ~pc d) then begin
              del.(pc) <- true;
              changes := Pass.change f pc "dead definition" :: !changes
            end
        | Instr.Store (_, areg) -> (
            match Reaching.const_addr rd ~pc areg with
            | Some a ->
                incr considered;
                if not (Liveness.word_live_after ml ~pc a) then begin
                  del.(pc) <- true;
                  changes :=
                    Pass.change f pc (Printf.sprintf "dead store to word %d" a)
                    :: !changes
                end
            | None -> ())
        | _ -> ())
    f.Prog.code;
  round_result f
    (fun pc -> if del.(pc) then Some [] else None)
    !changes !considered

let dce_pass =
  Pass.func_pass ~name:"deadcode" ~short:"dce"
    ~doc:
      "delete unreachable instructions, definitions the liveness analysis \
       proves dead, no-op self copies, and stores to constant-addressed \
       words that are overwritten before any possible read"
    (fun _ _ -> fixpoint ~rounds:8 dce_round)

(* --- registry ------------------------------------------------------------ *)

let all : Pass.t list =
  [
    fold_pass;
    simp_pass;
    cse_pass;
    rle_pass;
    copy_pass;
    promote_pass;
    hoist_pass;
    coalesce_pass;
    dce_pass;
  ]

let spec_names (passes : Pass.t list) : string =
  match Pass.spec_names all passes with "all" -> "opt" | s -> "opt:" ^ s

(* --- pipeline ------------------------------------------------------------ *)

let optimize ?(rounds = 4) (passes : Pass.t list) (p : Prog.t) :
    Prog.t * Pass.report list * Sitemap.t =
  Pass.run_pipeline ~rounds passes p

let pass_names = List.map (fun (p : Pass.t) -> p.Pass.name)

let check_identity ~(passes : string list) ~(base : Prog.t) ~(opt : Prog.t) :
    unit =
  let fail reason = raise (Identity_failed { passes; reason }) in
  let rb = Machine.run_plain base in
  let ro = Machine.run_plain opt in
  (match (rb.Machine.outcome, ro.Machine.outcome) with
  | Machine.Finished, Machine.Finished -> ()
  | _ -> fail "a fault-free run did not finish");
  if not (String.equal rb.Machine.output ro.Machine.output) then
    fail "fault-free output differs";
  let mb = rb.Machine.mem and mo = ro.Machine.mem in
  if Machine.mem_length mb <> Machine.mem_length mo then
    fail "memory sizes differ";
  for i = 0 to Machine.mem_length mb - 1 do
    if not (Int64.equal (Machine.mem_get mb i) (Machine.mem_get mo i)) then
      fail (Printf.sprintf "final memory differs at word %d" i)
  done;
  if rb.Machine.iterations <> ro.Machine.iterations then
    fail "main-loop iteration counts differ"

let transform ?rounds (passes : Pass.t list) (p : Prog.t) : Prog.t =
  let p', _, _ = optimize ?rounds passes p in
  p'

let transform_checked ?rounds (passes : Pass.t list) (p : Prog.t) : Prog.t =
  let p', _, _ = optimize ?rounds passes p in
  check_identity ~passes:(pass_names passes) ~base:p ~opt:p';
  p'

(* --- app wiring ---------------------------------------------------------- *)

let app_variant ?rounds ?(passes = all) (base : App.t) : App.t =
  {
    base with
    App.name = base.App.name ^ "@" ^ spec_names passes;
    description =
      base.App.description ^ ", optimized (" ^ spec_names passes ^ ")";
    transform = Some (transform_checked ?rounds passes);
  }

type optimized = {
  o_base : App.t;
  o_passes : Pass.t list;
  o_prog : Prog.t;
  o_reports : Pass.report list;
  o_sitemap : Sitemap.t;
}

let optimize_app ?rounds ?(passes = all) (base : App.t) : optimized =
  let prog = App.program base in
  let prog', reports, sitemap = optimize ?rounds passes prog in
  check_identity ~passes:(pass_names passes) ~base:prog ~opt:prog';
  {
    o_base = base;
    o_passes = passes;
    o_prog = prog';
    o_reports = reports;
    o_sitemap = sitemap;
  }

(* the traced optimized run and the reference-seq translation against
   the app's fault-free trace *)
let translation (o : optimized) ~ref_trace =
  let ro, opt_trace =
    Machine.run_traced ~iter_mark:(App.iter_mark o.o_base) o.o_prog
  in
  (match ro.Machine.outcome with
  | Machine.Finished -> ()
  | _ ->
      raise
        (Identity_failed
           {
             passes = pass_names o.o_passes;
             reason = "traced optimized run did not finish";
           }));
  ( ro,
    Sitemap.seq_translation (App.program o.o_base) o.o_sitemap ~ref_trace
      ~opt_trace )

let reference_seq_translation (o : optimized) : int -> int option =
  snd (translation o ~ref_trace:(snd (App.trace o.o_base)))

let reference_campaign ?(cfg = Campaign.default_config)
    ?(exec = Campaign.default_exec) (o : optimized) : Campaign.run_report =
  let _, ref_trace = App.trace o.o_base in
  let ro, map_seq = translation o ~ref_trace in
  let target =
    Campaign.translate_target ~map_seq
      (Campaign.whole_program_target (App.program o.o_base) ref_trace)
  in
  let cfg = { cfg with Campaign.site_level = Campaign.Reference } in
  Campaign.run_report o.o_prog
    ~verify:(App.verify o.o_base)
    ~clean_instructions:ro.Machine.instructions ~cfg ~exec target

let pp_reports (ppf : Format.formatter) (reps : Pass.report list) : unit =
  List.iter (fun r -> Format.fprintf ppf "%a@." Pass.pp_report r) reps

let static_instruction_count (p : Prog.t) : int =
  Array.fold_left
    (fun a (f : Prog.func) -> a + Array.length f.Prog.code)
    0 p.Prog.funcs
