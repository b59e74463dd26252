(** Reaching definitions, for registers and for statically-addressed
    memory words.

    {b Registers.}  For every instruction and register, the set of
    definition sites (instruction indices) whose value may still be in
    the register just before the instruction executes.  Two sentinel
    "definitions" model the state at function entry: [param_def] for
    registers that hold an incoming argument and [uninit_def] for
    registers never written since entry — the latter is what the
    verifier's use-before-def check looks for.

    {b Memory.}  The compiler puts every named scalar at a constant word
    address and materializes those addresses with [Const] instructions.
    For addresses that resolve to such a constant, a second forward
    analysis tracks the set of [Store] instructions whose value may
    occupy the word.  Stores through unresolvable addresses, calls, and
    [Randlc] may write anywhere and are folded in as unknown writers,
    which keeps [store_of] conservative: it answers only when exactly
    one resolvable store reaches the query point.

    {b Representation.}  An instruction defines at most one register,
    so one bit per pc names a definition, and all the per-register sets
    at a pc fit in a single bitset over [n + nregs] bits: bit [pc] says
    the definition at [pc] reaches, bit [n + r] says register [r]'s
    entry sentinel does.  A definition of [r] clears [r]'s kill mask
    (its definition pcs and its sentinel) and sets its own bit; the
    join is a word-wise [lor].  Memory uses the same shape: bit [pc]
    for a store to a resolved address, bit [n + i] for "an unknown
    writer may occupy tracked word [i]" — all [store_of] needs to know
    about the writers that are not resolvable stores. *)

let uninit_def = -1
let param_def = -2
let extern_def = -3  (* memory writer outside the function (initial image) *)

(* --- bitsets over int arrays ------------------------------------------- *)

let word_bits = Sys.int_size

let words_for (nbits : int) : int = (nbits + word_bits - 1) / word_bits

let bit_set (a : int array) (bit : int) : bool =
  a.(bit / word_bits) land (1 lsl (bit mod word_bits)) <> 0

(* [words] words with the given bits set *)
let mask (words : int) (bits : int list) : int array =
  let a = Array.make words 0 in
  List.iter
    (fun b ->
      a.(b / word_bits) <- a.(b / word_bits) lor (1 lsl (b mod word_bits)))
    bits;
  a

(* Materialize the per-instruction facts of a forward solution. *)
let per_pc_facts (cfg : Cfg.t) ~(transfer : int -> 'a -> 'a)
    (sol : 'a Dataflow.solution) ~(bottom : 'a) : 'a array =
  let n = Array.length cfg.Cfg.func.Prog.code in
  let before = Array.make n bottom in
  Array.iteri
    (fun bid (b : Cfg.block) ->
      let facts =
        Dataflow.block_facts ~dir:Dataflow.Forward ~transfer cfg sol bid
      in
      for i = 0 to b.Cfg.last - b.Cfg.first do
        before.(b.Cfg.first + i) <- facts.(i)
      done)
    cfg.Cfg.blocks;
  before

(* The facts before every pc of a forward gen/kill problem over bitsets
   of [words] words: the instruction at [pc] maps [x] to
   [(x land lnot kill) lor gen] when [gen_kill.(pc) = Some (kill, gen)],
   and blocks join with [lor]. *)
let solve_bits (cfg : Cfg.t) ~(words : int) ~(boundary : int list)
    (gen_kill : (int array * int array) option array) : int array array =
  let lat =
    { Dataflow.bottom = Array.make words 0; equal = ( = );
      join = Array.map2 ( lor ) }
  in
  let transfer pc fact =
    match gen_kill.(pc) with
    | None -> fact
    | Some (kill, gen) ->
        Array.init words (fun w -> fact.(w) land lnot kill.(w) lor gen.(w))
  in
  let sol =
    Dataflow.solve ~dir:Dataflow.Forward ~lat ~boundary:(mask words boundary)
      ~transfer cfg
  in
  per_pc_facts cfg ~transfer sol ~bottom:lat.Dataflow.bottom

(* --- registers ----------------------------------------------------------- *)

type t = {
  func : Prog.func;
  cfg : Cfg.t;
  arity : int;
  n : int;  (* instructions: bit [pc] is the definition at [pc] *)
  defs : int array array;  (* per register: its definition pcs, ascending *)
  before : int array array;  (* per pc: the bitset before it *)
}

(* the register an instruction defines, or -1 *)
let def_reg (nregs : int) (ins : Instr.t) : int =
  match Cfg.defs ins with [ d ] when d >= 0 && d < nregs -> d | _ -> -1

let compute ?(arity = 0) (f : Prog.func) : t =
  let cfg = Cfg.build f in
  let code = f.Prog.code in
  let n = Array.length code in
  let nregs = f.Prog.nregs in
  let words = words_for (n + nregs) in
  let def_lists = Array.make nregs [] in
  for pc = n - 1 downto 0 do
    let r = def_reg nregs code.(pc) in
    if r >= 0 then def_lists.(r) <- pc :: def_lists.(r)
  done;
  let kill = Array.init nregs (fun r -> mask words ((n + r) :: def_lists.(r))) in
  let gen_kill =
    Array.init n (fun pc ->
        let r = def_reg nregs code.(pc) in
        if r < 0 then None else Some (kill.(r), mask words [ pc ]))
  in
  let before =
    solve_bits cfg ~words ~boundary:(List.init nregs (fun r -> n + r)) gen_kill
  in
  { func = f; cfg; arity; n; defs = Array.map Array.of_list def_lists; before }

let cfg (t : t) : Cfg.t = t.cfg

let in_range (t : t) ~(pc : int) (r : Instr.reg) : bool =
  pc >= 0 && pc < t.n && r >= 0 && r < t.func.Prog.nregs

let defs_of (t : t) ~(pc : int) (r : Instr.reg) : int list =
  if not (in_range t ~pc r) then []
  else begin
    let fact = t.before.(pc) and ds = t.defs.(r) in
    let acc = ref [] in
    for j = Array.length ds - 1 downto 0 do
      if bit_set fact ds.(j) then acc := ds.(j) :: !acc
    done;
    if bit_set fact (t.n + r) then
      (if r < t.arity then param_def else uninit_def) :: !acc
    else !acc
  end

(* The one bit among [cands] set in [fact], if exactly one is. *)
let single_bit (fact : int array) (cands : int array) : int option =
  let found = ref (-1) and count = ref 0 in
  Array.iter
    (fun d ->
      if !count < 2 && bit_set fact d then begin
        incr count;
        found := d
      end)
    cands;
  if !count = 1 then Some !found else None

(** The single real definition site reaching a use, if there is exactly
    one and it is an instruction (not a sentinel). *)
let unique_def (t : t) ~(pc : int) (r : Instr.reg) : int option =
  if not (in_range t ~pc r) then None
  else
    let fact = t.before.(pc) in
    if bit_set fact (t.n + r) then None else single_bit fact t.defs.(r)

let may_be_uninit (t : t) ~(pc : int) (r : Instr.reg) : bool =
  in_range t ~pc r && r >= t.arity && bit_set t.before.(pc) (t.n + r)

(** Resolve the address register of a load/store to a constant word
    address, when its unique reaching definition is a [Const]. *)
let const_addr (t : t) ~(pc : int) (r : Instr.reg) : int option =
  match unique_def t ~pc r with
  | Some d -> (
      match t.func.Prog.code.(d) with
      | Instr.Const (_, k) when Int64.compare k 0L >= 0
                                && Int64.compare k (Int64.of_int max_int) < 0 ->
          Some (Int64.to_int k)
      | _ -> None)
  | None -> None

(* --- reaching stores over constant-address memory words ---------------- *)

type mem = {
  regs : t;
  addr_index : (int, int) Hashtbl.t;  (* word address -> dense index *)
  addrs : int array;
  stores : int array array;  (* per dense index: its resolved store pcs *)
  mem_before : int array array;  (* per pc: the bitset before it *)
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
  (* per pc: the dense index a store resolves to; -1 for an unknown
     writer, -2 for an instruction that writes no memory *)
  let target = Array.make n (-2) in
  for pc = 0 to n - 1 do
    match code.(pc) with
    | Instr.Load (_, a) -> Option.iter note (const_addr regs ~pc a)
    | Instr.Store (_, a) -> (
        match const_addr regs ~pc a with
        | Some addr ->
            note addr;
            target.(pc) <- Hashtbl.find addr_index addr
        | None -> target.(pc) <- -1)
    | Instr.Call _ | Instr.Intr (Instr.Randlc, _, _) ->
        (* may write any word: the callee's frame overlaps nothing we
           track here, but globals do, so stay conservative *)
        target.(pc) <- -1
    | Instr.Const _ | Instr.Bin _ | Instr.Un _ | Instr.Jmp _ | Instr.Bnz _
    | Instr.Ret _ | Instr.Intr _ | Instr.Mark _ ->
        ()
  done;
  let addrs = Array.of_list (List.rev !addrs) in
  let width = Array.length addrs in
  let words = words_for (n + width) in
  let store_lists = Array.make width [] in
  for pc = n - 1 downto 0 do
    let i = target.(pc) in
    if i >= 0 then store_lists.(i) <- pc :: store_lists.(i)
  done;
  let unknown_bits = List.init width (fun i -> n + i) in
  let kill = Array.init width (fun i -> mask words ((n + i) :: store_lists.(i))) in
  let unknown = Some (mask words [], mask words unknown_bits) in
  let gen_kill =
    Array.init n (fun pc ->
        let i = target.(pc) in
        if i >= 0 then Some (kill.(i), mask words [ pc ])
        else if i = -1 then unknown
        else None)
  in
  let mem_before =
    solve_bits regs.cfg ~words ~boundary:unknown_bits gen_kill
  in
  { regs; addr_index; addrs; stores = Array.map Array.of_list store_lists;
    mem_before }

let tracked_addrs (m : mem) : int list = Array.to_list m.addrs

(** The unique store whose value occupies word [addr] just before [pc],
    if there is exactly one and it is itself a store to that resolved
    address (unknown writers disqualify the word). *)
let store_of (m : mem) ~(pc : int) ~(addr : int) : int option =
  match Hashtbl.find_opt m.addr_index addr with
  | None -> None
  | Some i ->
      if pc < 0 || pc >= m.regs.n then None
      else
        let fact = m.mem_before.(pc) in
        if bit_set fact (m.regs.n + i) then None
        else single_bit fact m.stores.(i)
