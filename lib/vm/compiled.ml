(** Compiled (non-tracing) execution backend.

    A one-time {e closure compilation} of a program: every instruction
    of every function is translated, once per program, into a
    pre-resolved thunk — operand registers, branch targets, opcode
    semantics, intrinsic bodies and the return-register write are all
    resolved at compile time, and the thunks are {e direct-threaded}:
    each one tail-calls its successor through the function's step
    array, so the hot loop has no per-step dispatch on the instruction
    constructor, no program counter bookkeeping, and allocates no
    trace events.  Registers and memory live in unboxed [Bigarray]
    storage (registers on a growable register stack addressed by a
    frame base), so the ALU, load and store steps compile to plain
    64-bit loads and stores — no write barrier, no per-operation
    boxing.  Each domain keeps one memory buffer, register stack and
    output buffer and resets them at the start of every run (memory
    by dirty page), so a trial allocates none of them; the result's
    {!Machine.mem} is a view of the domain's buffer, valid until the
    domain's next compiled run.  The
    per-instruction dynamic-seq accounting (budget check, [tick],
    memory-fault application, write-fault application, iteration
    markers) is preserved {e exactly}: a compiled run is bit-identical
    to the interpreter on outcome, output, final memory, instruction
    count, iteration count, and fault firing — the differential
    harness in [test_backend] pins this on every registry app,
    optimized and hardened variants included.

    What the backend deliberately does not support — and why falling
    back is safe:
    {ul
    {- {e tracing / sinks}: the whole point is to skip event
       construction; a traced run wants the interpreter;}
    {- {e MPI hooks}: rank interleaving is driven by the simulated
       runtime, out of scope for a per-process compile;}
    {- {e recovery rollback}: its snapshots capture region bookkeeping
       the compiled thunks do not maintain;}
    {- {e cache faults}: only the interpreter simulates the cache.}}
    {!supported} detects these configurations so callers
    ({!Backend.run}) fall back to {!Machine.run} explicitly instead of
    silently diverging.

    Trial checkpoints are a different thing from recovery rollback:
    they change no result.  A run with a [Write] or [Mem] fault and no
    [tick] restores the last snapshot of the clean run at or before its
    fault, and ends with the clean run's result once its state equals
    the clean run's at a later snapshot (DESIGN.md, "Checkpointed
    trials").

    Plans are cached content-addressed (digest of the marshaled
    program) with a physical-identity fast path, so campaigns compile
    each program once no matter how many trials run. *)

module BA1 = Bigarray.Array1

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

let ba (n : int) : ba = BA1.create Bigarray.int64 Bigarray.c_layout n

(* --- pages and initial images -------------------------------------------- *)

(* Memory is accounted in pages of [page_words] words.  Every store
   marks its page in the domain's dirty map, one byte per page: the map
   is what resets the domain's memory between runs and what bounds the
   memory compare of a checkpointed trial. *)
let page_bits = 6
let page_words = 1 lsl page_bits
let pages_of (words : int) : int = (words + page_words - 1) lsr page_bits

(* a dirty map for [words] words, padded to whole 8-byte chunks so that
   it is scanned a chunk at a time *)
let dirty_map (words : int) : Bytes.t =
  Bytes.make ((pages_of words + 7) land lnot 7) '\000'

let[@inline] chunk_clear (dirty : Bytes.t) (c : int) : bool =
  Int64.equal (Bytes.get_int64_ne dirty (c lsl 3)) 0L

(* A program's initial memory image by page: [addrs] holds the
   initialized addresses in ascending order, each once with the last
   value [init_mem] gives it in [vals], and [first.(p)] indexes the
   first of them in page [p].  [bad] marks an address outside
   [0, len): every run refuses such an image, as the interpreter does. *)
type image = {
  len : int;
  addrs : int array;
  vals : ba;
  first : int array;
  bad : bool;
}

let image_of (prog : Prog.t) : image =
  let len = prog.Prog.mem_size in
  let bad =
    List.exists (fun (a, _) -> a < 0 || a >= len) prog.Prog.init_mem
  in
  let last = Hashtbl.create 64 in
  if not bad then
    List.iter (fun (a, v) -> Hashtbl.replace last a v) prog.Prog.init_mem;
  let addrs = Array.of_seq (Hashtbl.to_seq_keys last) in
  Array.sort Int.compare addrs;
  let vals = ba (Array.length addrs) in
  Array.iteri (fun k a -> BA1.unsafe_set vals k (Hashtbl.find last a)) addrs;
  let npages = pages_of len in
  let first = Array.make (npages + 1) 0 in
  let k = ref 0 in
  for p = 0 to npages do
    while !k < Array.length addrs && addrs.(!k) < p lsl page_bits do
      incr k
    done;
    first.(p) <- !k
  done;
  { len; addrs; vals; first; bad }

(* page [p] of [mem] back to the image *)
let reset_page (mem : ba) (img : image) (p : int) : unit =
  let lo = p lsl page_bits in
  for a = lo to min img.len (lo + page_words) - 1 do
    BA1.unsafe_set mem a 0L
  done;
  for k = img.first.(p) to img.first.(p + 1) - 1 do
    BA1.unsafe_set mem img.addrs.(k) (BA1.unsafe_get img.vals k)
  done

(* does page [p] of [mem] hold the image? *)
let image_page_equal (mem : ba) (img : image) (p : int) : bool =
  let lo = p lsl page_bits in
  let hi = min img.len (lo + page_words) in
  let stop = img.first.(p + 1) in
  let rec go a k =
    a >= hi
    ||
    if k < stop && img.addrs.(k) = a then
      Int64.equal (BA1.unsafe_get mem a) (BA1.unsafe_get img.vals k)
      && go (a + 1) (k + 1)
    else Int64.equal (BA1.unsafe_get mem a) 0L && go (a + 1) k
  in
  go lo img.first.(p)

(* --- trial checkpoints ------------------------------------------------- *)

(* The state of the clean run at an entry-frame (depth 0) instruction
   boundary: the seq and pc of the next instruction, the entry frame's
   registers, the iteration counter, the output length, and the memory
   pages written since the previous snapshot ([pages] ascending, their
   words [page_words] apiece in [words]). *)
type snap = {
  s_seq : int;
  s_pc : int;
  s_regs : ba;
  s_iter : int;
  s_out : int;
  s_pages : int array;
  s_words : ba;
}

(* The checkpoints of one plan under one iteration mark, taken from one
   clean run of at most [limit] instructions.  [snaps.(0)] is the state
   at seq 0.  [fin], when the clean run ended within [limit], is its end
   state (the pages written after the last snapshot, its instruction
   count as [s_seq]) with its outcome.  [vers.(p)] lists in ascending
   order the snapshots holding a version of page [p], index
   [Array.length snaps] standing for [fin]; [ever] lists the pages with
   any version.  [out] is the clean run's output. *)
type ckset = {
  mark : int;
  limit : int;
  img : image;
  snaps : snap array;
  fin : (snap * Machine.outcome) option;
  out : string;
  vers : int array array;
  ever : int array;
}

(* What the slow prologue does when the seq reaches [probe_at]: nothing,
   snapshot the clean run, or compare a faulty run with the clean
   snapshot [next]. *)
type recorder = {
  every : int;  (** instructions between snapshots *)
  nregs : int;  (** the entry frame's registers *)
  mutable taken : snap list;  (** newest first *)
  mutable fin : (snap * Machine.outcome) option;
  mutable out : string;
}

type rejoin = {
  set : ckset;
  mutable next : int;
  from_out : int;  (** output length at the restore *)
  mutable hot : int;  (** the page that differed at the last compare, or -1 *)
}

type probe = Quiet | Record of recorder | Rejoin of rejoin

(* --- per-run mutable state --------------------------------------------- *)

(* Everything a step thunk needs at run time.  Fault checks are
   pre-resolved to two sentinel sequence numbers and two corruption
   closures: the hot path pays one integer compare per fault kind per
   instruction instead of the interpreter's constructor match. *)
type rt = {
  mem : ba;  (** the domain's memory buffer; words past [mem_len] are unused *)
  mem_len : int;
  dirty : Bytes.t;  (** the domain's dirty map: nonzero for each stored page *)
  out : Buffer.t;
  mutable count : int;  (** dynamic instruction counter (the seq source) *)
  budget : int;
  mutable next_stop : int;
      (** first seq needing the slow prologue: min of the budget, a
          still-pending memory-fault seq and [probe_at] *)
  probe : probe;
  mutable probe_at : int;  (** next seq for [probe], or [max_int] *)
  tick : unit -> unit;
  has_tick : bool;
  wf_seq : int;  (** seq whose written value is corrupted, or [min_int] *)
  wf : int64 -> int64;
  mf_seq : int;  (** seq before which a memory word is corrupted *)
  mf_addr : int;
  mf : int64 -> int64;
  iter_mark : int;
  mutable iter : int;
  mutable rs : ba;  (** register stack, one frame per live activation *)
  mutable sp : int;  (** first free register-stack slot *)
}

(* a faulty run whose state equals clean snapshot [j] *)
exception Rejoined of int

(* [Value.truth] and [Value.is_true], local so they inline into the
   step thunks: across a module compiled [-opaque] they would be calls
   that box their [int64] *)
let[@inline] truth (b : bool) : int64 = if b then 1L else 0L
let[@inline] is_true (v : int64) : bool = not (Int64.equal v 0L)

(* the one memory write of the backend: every store marks its page *)
let[@inline] store (rt : rt) (a : int) (v : int64) : unit =
  BA1.unsafe_set rt.mem a v;
  Bytes.unsafe_set rt.dirty (a lsr page_bits) '\001'

(* mirrors the interpreter's [apply_mem_fault]: bounds-check the
   faulted address (a wild address is a segfault, like any access) *)
let apply_mem (rt : rt) : unit =
  let a = rt.mf_addr in
  if a < 0 || a >= rt.mem_len then
    raise (Machine.Vm_trap (Printf.sprintf "segfault at address %d" a));
  store rt a (rt.mf (BA1.unsafe_get rt.mem a))

(* the words of page [p] below [len] *)
let page_len (len : int) (p : int) : int =
  min page_words (len - (p lsl page_bits))

(* snapshot the current state as at seq [seq], pc [pc]; the pages taken
   are the marked ones, which are unmarked *)
let capture (rt : rt) ~(nregs : int) ~(seq : int) ~(pc : int) : snap =
  let dirty = rt.dirty in
  let npages = pages_of rt.mem_len in
  let marked = ref [] in
  for c = ((npages + 7) lsr 3) - 1 downto 0 do
    if not (chunk_clear dirty c) then begin
      for p = min npages ((c lsl 3) + 8) - 1 downto c lsl 3 do
        if Bytes.unsafe_get dirty p <> '\000' then marked := p :: !marked
      done;
      Bytes.set_int64_ne dirty (c lsl 3) 0L
    end
  done;
  let pages = Array.of_list !marked in
  let words = ba (Array.length pages * page_words) in
  BA1.fill words 0L;
  Array.iteri
    (fun k p ->
      for w = 0 to page_len rt.mem_len p - 1 do
        BA1.unsafe_set words ((k * page_words) + w)
          (BA1.unsafe_get rt.mem ((p lsl page_bits) + w))
      done)
    pages;
  let regs = ba nregs in
  for r = 0 to nregs - 1 do
    BA1.unsafe_set regs r (BA1.unsafe_get rt.rs r)
  done;
  {
    s_seq = seq;
    s_pc = pc;
    s_regs = regs;
    s_iter = rt.iter;
    s_out = Buffer.length rt.out;
    s_pages = pages;
    s_words = words;
  }

let snap_at (set : ckset) (v : int) : snap =
  if v < Array.length set.snaps then set.snaps.(v)
  else match set.fin with Some (f, _) -> f | None -> invalid_arg "snap_at"

(* the newest snapshot at or before [j] holding page [p], or -1 *)
let version (set : ckset) (p : int) (j : int) : int =
  let vs = set.vers.(p) in
  let rec go i =
    if i < 0 then -1 else if vs.(i) <= j then vs.(i) else go (i - 1)
  in
  go (Array.length vs - 1)

(* where page [p]'s words start in [s], which holds the page *)
let page_base (s : snap) (p : int) : int =
  let rec go lo hi =
    let mid = (lo + hi) lsr 1 in
    if s.s_pages.(mid) < p then go (mid + 1) hi
    else if s.s_pages.(mid) > p then go lo (mid - 1)
    else mid * page_words
  in
  go 0 (Array.length s.s_pages - 1)

(* copy page [p] of snapshot [s] into [mem] of [len] words *)
let load_page (mem : ba) (len : int) (s : snap) (p : int) : unit =
  let lo = p lsl page_bits and base = page_base s p in
  for w = 0 to page_len len p - 1 do
    BA1.unsafe_set mem (lo + w) (BA1.unsafe_get s.s_words (base + w))
  done

(* does page [p] of the run's memory hold what the clean run's memory
   held at snapshot [j]? *)
let page_equal (rt : rt) (set : ckset) (j : int) (p : int) : bool =
  match version set p j with
  | -1 -> image_page_equal rt.mem set.img p
  | v ->
      let s = snap_at set v in
      let lo = p lsl page_bits and base = page_base s p in
      let rec go w =
        w < 0
        || Int64.equal
             (BA1.unsafe_get rt.mem (lo + w))
             (BA1.unsafe_get s.s_words (base + w))
           && go (w - 1)
      in
      go (page_len rt.mem_len p - 1)

(* every marked page equal to snapshot [j]'s, the one that differed last
   time first; remembers the first page that differs *)
let rec marked_equal (rt : rt) (r : rejoin) (j : int) (p : int) (hi : int) :
    bool =
  p >= hi
  || (Bytes.unsafe_get rt.dirty p = '\000'
     || p = r.hot
     || page_equal rt r.set j p
     || (r.hot <- p; false))
     && marked_equal rt r j (p + 1) hi

let rec chunks_equal (rt : rt) (r : rejoin) (j : int) (c : int) (npages : int) :
    bool =
  c lsl 3 >= npages
  || (chunk_clear rt.dirty c
     || marked_equal rt r j (c lsl 3) (min npages ((c lsl 3) + 8)))
     && chunks_equal rt r j (c + 1) npages

let memory_equal (rt : rt) (r : rejoin) (j : int) : bool =
  let hot = r.hot in
  (hot < 0
  || Bytes.unsafe_get rt.dirty hot = '\000'
  || page_equal rt r.set j hot)
  && chunks_equal rt r j 0 (pages_of rt.mem_len)

(* is the run at pc [pc] of the entry frame in the state of clean
   snapshot [j]?  Cheapest fields first; output is compared from the
   restore on, memory on the marked pages only *)
let same_state (rt : rt) (r : rejoin) (j : int) (pc : int) : bool =
  let s = r.set.snaps.(j) in
  pc = s.s_pc && rt.iter = s.s_iter
  && Buffer.length rt.out = s.s_out
  &&
  let rec regs k =
    k < 0
    || Int64.equal (BA1.unsafe_get rt.rs k) (BA1.unsafe_get s.s_regs k)
       && regs (k - 1)
  in
  regs (BA1.dim s.s_regs - 1)
  &&
  let rec out i =
    i >= s.s_out || Buffer.nth rt.out i = r.set.out.[i] && out (i + 1)
  in
  out r.from_out && memory_equal rt r j

(* the slow prologue's checkpoint work at seq [probe_at] *)
let probe (rt : rt) (seq : int) (pc : int) (depth : int) : unit =
  match rt.probe with
  | Quiet -> rt.probe_at <- max_int
  | Record r ->
      if depth = 0 then begin
        r.taken <- capture rt ~nregs:r.nregs ~seq ~pc :: r.taken;
        rt.probe_at <- seq + r.every
      end
      else (* in a callee: snapshot at the first return to the entry frame *)
        rt.probe_at <- seq + 1
  | Rejoin r ->
      let snaps = r.set.snaps in
      let j = r.next in
      let s = snaps.(j) in
      (* the clean run's pages since the previous snapshot join the
         compared ones *)
      for k = 0 to Array.length s.s_pages - 1 do
        Bytes.unsafe_set rt.dirty s.s_pages.(k) '\001'
      done;
      if depth = 0 && seq = s.s_seq && same_state rt r j pc then
        raise (Rejoined j);
      r.next <- j + 1;
      rt.probe_at <-
        (if j + 1 < Array.length snaps then snaps.(j + 1).s_seq else max_int)

(* the next seq after [seq] needing the slow prologue *)
let stop_after (rt : rt) (seq : int) : int =
  let s = if rt.probe_at < rt.budget then rt.probe_at else rt.budget in
  if rt.mf_seq > seq && rt.mf_seq < s then rt.mf_seq else s

(* cold half of the per-instruction prologue: runs only when a step's
   seq reaches [next_stop], i.e. the budget boundary, a pending memory
   fault or a checkpoint probe.  Replicates the interpreter's exact
   order — budget check, tick, counter advance, memory-fault
   application — so that instruction counts and trap points stay
   bit-identical; the probe sees the state before the instruction. *)
let slow_pre (rt : rt) (seq : int) (pc : int) (depth : int) : unit =
  if seq >= rt.budget then raise Machine.Budget;
  if seq >= rt.probe_at then probe rt seq pc depth;
  if rt.has_tick then rt.tick ();
  rt.count <- seq + 1;
  if seq = rt.mf_seq then apply_mem rt;
  rt.next_stop <- stop_after rt seq

(* the per-instruction prologue of the instruction at [pc] of a frame at
   call depth [depth].  The fast path pays one compare against
   [next_stop] (folding the budget, memory-fault and checkpoint
   checks), the tick test, and the counter advance; [pc] and [depth]
   only reach the slow path.  Returns this instruction's dynamic seq. *)
let[@inline] pre (rt : rt) (pc : int) (depth : int) : int =
  let seq = rt.count in
  (if seq >= rt.next_stop then slow_pre rt seq pc depth
   else begin
     if rt.has_tick then rt.tick ();
     rt.count <- seq + 1
   end);
  seq

(* mirrors the interpreter's [addr_of_value] byte for byte *)
let max_addr : int64 = Int64.of_int max_int

let[@inline] addr_of (rt : rt) (v : int64) : int =
  if Int64.compare v 0L < 0 || Int64.compare v max_addr > 0 then
    raise (Machine.Vm_trap "segfault: wild address");
  let a = Value.to_int v in
  if a < 0 || a >= rt.mem_len then
    raise (Machine.Vm_trap (Printf.sprintf "segfault at address %d" a));
  a

(* checked register access for indices the compile-time validation
   could not prove in range: reproduces the interpreter's
   [Invalid_argument] from a plain array access, frame-locally *)
let getr (rt : rt) (bp : int) (nregs : int) (r : int) : int64 =
  if r < 0 || r >= nregs then invalid_arg "index out of bounds";
  BA1.unsafe_get rt.rs (bp + r)

let setr (rt : rt) (bp : int) (nregs : int) (r : int) (v : int64) : unit =
  if r < 0 || r >= nregs then invalid_arg "index out of bounds";
  BA1.unsafe_set rt.rs (bp + r) v

(* --- the compiled form -------------------------------------------------- *)

(* A step executes one instruction and tail-calls its successor; the
   arguments are the run state, the activation's register-stack frame
   base, and the call depth.  [Some v] / [None] is the activation's
   return value (the interpreter's [result]).  Every function's step
   array carries two sentinels past the code: index [len] halts (the
   interpreter's fall-off-the-end / [pc >= len] exit, also the target
   of any out-of-range forward branch) and index [len + 1] reproduces
   the interpreter's instruction-fetch failure on a negative branch
   target. *)
type step = rt -> int -> int -> int64 option

let halt : step = fun _ _ _ -> None
let bad_fetch : step = fun _ _ _ -> invalid_arg "index out of bounds"

type cfun = { steps : step array; nregs : int }

type plan = {
  p_prog : Prog.t;
  p_exec : rt -> int -> int64 array -> int -> int64 option;
  p_funs : cfun array;
  p_img : image;
  p_ck : ckset list Atomic.t;
      (** the checkpoint sets recorded so far, one per iteration mark *)
}

let prog (p : plan) : Prog.t = p.p_prog

(* compile one instruction to a thunk.  [steps] is the enclosing
   function's (not yet fully filled) step array: successors are
   reached by index through it, so forward and backward edges resolve
   uniformly once compilation finishes.  [call_exec] breaks the
   compile/execute recursion — steps of a caller need the executor of
   its callees, which are compiled by the same pass.

   Register indices are validated here, at compile time: in-range
   accesses (every program the front end emits) use unsafe stack
   slots, out-of-range ones go through {!getr}/{!setr} so a malformed
   program fails with the interpreter's exact exception at the exact
   instruction.  The hot arms duplicate the register write across the
   write-fault branch so the fault-free path is a pure unboxed
   load/compute/store chain. *)
let compile_step ~(call_exec : rt -> int -> int64 array -> int -> int64 option)
    ~(steps : step array) (f : Prog.func) (i : int) : step =
  let len = Array.length f.Prog.code in
  let nregs = f.Prog.nregs in
  let next = i + 1 in
  let next2 = i + 2 in
  (* clamp a branch target to the sentinel slots: >= len halts (the
     interpreter's loop-exit check), < 0 fails the fetch *)
  let tgt l = if l < 0 then len + 1 else if l > len then len else l in
  let ok r = r >= 0 && r < nregs in
  (* fall-through successor, with a trailing unconditional jump folded
     into the predecessor's epilogue: the jump still consumes its own
     dynamic seq (full prologue) but costs no indirect call — loop
     back-edges are ~10% of the dynamic steps in tight kernels *)
  let succ j =
    if j < len then
      match f.Prog.code.(j) with
      | Instr.Jmp l -> (tgt l, true)
      | _ -> (j, false)
    else (j, false)
  in
  let jnext, jfuse = succ next in
  match f.Prog.code.(i) with
  | Instr.Const (d, v) when ok d ->
      fun rt bp depth ->
        let seq = pre rt i depth in
        BA1.unsafe_set rt.rs (bp + d) (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Const (d, v) ->
      fun rt bp depth ->
        let seq = pre rt i depth in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Bin
      (((Op.Eq | Op.Ne | Op.Lt | Op.Le | Op.Gt | Op.Ge) as op), d, a, b)
    when ok d && ok a && ok b && next < len
         && (match f.Prog.code.(next) with
            | Instr.Bnz (c, _, _) -> c = d
            | _ -> false) -> (
      (* loop-control superinstruction: an integer compare immediately
         consumed by a conditional branch on its result.  Both dynamic
         seqs keep their full prologues (budget, tick, memory fault)
         and the branch reads the {e stored} register — a write fault
         on the compare's seq still steers the branch — so the fused
         pair is observably identical to the two separate steps, minus
         one indirect call per loop iteration. *)
      let l1, l2 =
        match f.Prog.code.(next) with
        | Instr.Bnz (_, l1, l2) -> (tgt l1, tgt l2)
        | _ -> assert false
      in
      match op with
      | Op.Lt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y < 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y < 0)));
            let _ = pre rt next depth in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Le ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y <= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y <= 0)));
            let _ = pre rt next depth in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Gt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y > 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y > 0)));
            let _ = pre rt next depth in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Ge ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y >= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y >= 0)));
            let _ = pre rt next depth in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Eq ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.equal x y)))
             else BA1.unsafe_set rs (bp + d) (truth (Int64.equal x y)));
            let _ = pre rt next depth in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (not (Int64.equal x y))))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (not (Int64.equal x y))));
            let _ = pre rt next depth in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth)
  | Instr.Bin (((Op.Add | Op.Or | Op.Ashr) as op1), d, a, b)
    when ok d && ok a && ok b && next < len
         && (match f.Prog.code.(next) with
            | Instr.Store (s, aa) -> ok s && ok aa
            | _ -> false) -> (
      (* address-compute superinstruction: an integer op feeding a
         store on the very next step.  Both halves keep their full
         prologues and register writes — only the inter-step indirect
         call is gone. *)
      let s2, a2 =
        match f.Prog.code.(next) with
        | Instr.Store (s, aa) -> (s, aa)
        | _ -> assert false
      in
      let jnext2, jfuse2 = succ next2 in
      match op1 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            let seq2 = pre rt next depth in
            let vs = BA1.unsafe_get rs (bp + s2) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then store rt addr (rt.wf vs)
             else store rt addr vs);
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth
      | Op.Ashr ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let sh = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.shift_right x sh))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_right x sh));
            let seq2 = pre rt next depth in
            let vs = BA1.unsafe_get rs (bp + s2) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then store rt addr (rt.wf vs)
             else store rt addr vs);
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            let seq2 = pre rt next depth in
            let vs = BA1.unsafe_get rs (bp + s2) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then store rt addr (rt.wf vs)
             else store rt addr vs);
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Bin (((Op.Add | Op.Or) as op1), d, a, b)
    when ok d && ok a && ok b && next < len
         && (match f.Prog.code.(next) with
            | Instr.Load (dd, aa) -> ok dd && ok aa
            | _ -> false) -> (
      (* integer op feeding a load: same fusion rules as above *)
      let d2, a2 =
        match f.Prog.code.(next) with
        | Instr.Load (dd, aa) -> (dd, aa)
        | _ -> assert false
      in
      let jnext2, jfuse2 = succ next2 in
      match op1 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            let seq2 = pre rt next depth in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d2) (BA1.unsafe_get rt.mem addr));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            let seq2 = pre rt next depth in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d2) (BA1.unsafe_get rt.mem addr));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Bin (((Op.Add | Op.Or) as op1), d, a, b)
    when ok d && ok a && ok b && next < len
         && (match f.Prog.code.(next) with
            | Instr.Bin (Op.Add, dd, aa, bb) -> ok dd && ok aa && ok bb
            | _ -> false) -> (
      (* back-to-back integer arithmetic (index stepping) *)
      let d2, a2, b2 =
        match f.Prog.code.(next) with
        | Instr.Bin (_, dd, aa, bb) -> (dd, aa, bb)
        | _ -> assert false
      in
      let jnext2, jfuse2 = succ next2 in
      match op1 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            let seq2 = pre rt next depth in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            let seq2 = pre rt next depth in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Bin (op, d, a, b) when ok d && ok a && ok b -> (
      (* the hot ALU ops are expanded inline — no per-application
         closure call, unboxed fault-free path — with the exact
         eval_bin semantics; trapping and rare ops keep the
         one-time-dispatch closure *)
      match op with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Sub ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.sub x y))
             else BA1.unsafe_set rs (bp + d) (Int64.sub x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Mul ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.mul x y))
             else BA1.unsafe_set rs (bp + d) (Int64.mul x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Div ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            if Int64.equal y 0L then raise (Op.Trap "integer division by zero");
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.div x y))
             else BA1.unsafe_set rs (bp + d) (Int64.div x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Rem ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            if Int64.equal y 0L then raise (Op.Trap "integer remainder by zero");
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.rem x y))
             else BA1.unsafe_set rs (bp + d) (Int64.rem x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.And ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logand x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logand x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Or ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Xor ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logxor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logxor x y));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Shl ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let s = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.shift_left x s))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_left x s));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Lshr ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let s = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Int64.shift_right_logical x s))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_right_logical x s));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Ashr ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let s = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.shift_right x s))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_right x s));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Eq ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.equal x y)))
             else BA1.unsafe_set rs (bp + d) (truth (Int64.equal x y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Ne ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (not (Int64.equal x y))))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (not (Int64.equal x y))));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Lt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y < 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y < 0)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Le ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y <= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y <= 0)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Gt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y > 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y > 0)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Ge ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y >= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y >= 0)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fadd ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf
                    (Value.of_float (Value.to_float x +. Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (Value.to_float x +. Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fsub ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf
                    (Value.of_float (Value.to_float x -. Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (Value.to_float x -. Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fmul ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf
                    (Value.of_float (Value.to_float x *. Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (Value.to_float x *. Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fdiv ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf
                    (Value.of_float (Value.to_float x /. Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (Value.to_float x /. Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Flt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x < Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x < Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fle ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x <= Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x <= Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fgt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x > Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x > Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fge ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x >= Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x >= Value.to_float y)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Imin ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let v = if Int64.compare x y <= 0 then x else y in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf v)
             else BA1.unsafe_set rs (bp + d) v);
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Imax ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let v = if Int64.compare x y >= 0 then x else y in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf v)
             else BA1.unsafe_set rs (bp + d) v);
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Feq | Op.Fne | Op.Fmin | Op.Fmax ->
          let g = Op.bin_fn op in
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let v = g (BA1.unsafe_get rs (bp + a)) (BA1.unsafe_get rs (bp + b)) in
            BA1.unsafe_set rs (bp + d) (if seq = rt.wf_seq then rt.wf v else v);
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth)
  | Instr.Bin (op, d, a, b) ->
      let g = Op.bin_fn op in
      fun rt bp depth ->
        let seq = pre rt i depth in
        let v = g (getr rt bp nregs a) (getr rt bp nregs b) in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Un (op, d, a) when ok d && ok a -> (
      match op with
      | Op.Neg ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.neg x))
             else BA1.unsafe_set rs (bp + d) (Int64.neg x));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Not ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.lognot x))
             else BA1.unsafe_set rs (bp + d) (Int64.lognot x));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fneg ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Value.of_float (-.Value.to_float x)))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (-.Value.to_float x)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fabs ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Value.of_float (Float.abs (Value.to_float x))))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (Float.abs (Value.to_float x))));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Trunc32 ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Int64.shift_right (Int64.shift_left x 32) 32))
             else
               BA1.unsafe_set rs (bp + d)
                 (Int64.shift_right (Int64.shift_left x 32) 32));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.FloatOfInt ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Value.of_float (Int64.to_float x)))
             else
               BA1.unsafe_set rs (bp + d) (Value.of_float (Int64.to_float x)));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.F32round ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf
                    (Value.of_float
                       (Int32.float_of_bits
                          (Int32.bits_of_float (Value.to_float x)))))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float
                    (Int32.float_of_bits
                       (Int32.bits_of_float (Value.to_float x)))));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fsqrt | Op.Fsin | Op.Fcos | Op.IntOfFloat ->
          let g = Op.un_fn op in
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let v = g (BA1.unsafe_get rs (bp + a)) in
            BA1.unsafe_set rs (bp + d) (if seq = rt.wf_seq then rt.wf v else v);
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth)
  | Instr.Un (op, d, a) ->
      let g = Op.un_fn op in
      fun rt bp depth ->
        let seq = pre rt i depth in
        let v = g (getr rt bp nregs a) in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Load (d, a)
    when ok d && ok a && next < len
         && (match f.Prog.code.(next) with
            | Instr.Bin ((Op.Add | Op.Ashr), dd, aa, bb) ->
                ok dd && ok aa && ok bb
            | _ -> false) -> (
      (* load feeding integer arithmetic *)
      let op2, d2, a2, b2 =
        match f.Prog.code.(next) with
        | Instr.Bin (o, dd, aa, bb) -> (o, dd, aa, bb)
        | _ -> assert false
      in
      let jnext2, jfuse2 = succ next2 in
      match op2 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
            let seq2 = pre rt next depth in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
            let seq2 = pre rt next depth in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            let sh = Int64.to_int y2 land 63 in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.shift_right x2 sh))
             else BA1.unsafe_set rs (bp + d2) (Int64.shift_right x2 sh));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Load (d, a)
    when ok d && ok a && next < len
         && (match f.Prog.code.(next) with
            | Instr.Store (ss, aa) -> ok ss && ok aa
            | _ -> false) ->
      (* memory-to-memory move *)
      let s2, a2 =
        match f.Prog.code.(next) with
        | Instr.Store (ss, aa) -> (ss, aa)
        | _ -> assert false
      in
      let jnext2, jfuse2 = succ next2 in
      fun rt bp depth ->
        let seq = pre rt i depth in
        let rs = rt.rs in
        let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
        (if seq = rt.wf_seq then
           BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
         else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
        let seq2 = pre rt next depth in
        let vs = BA1.unsafe_get rs (bp + s2) in
        let addr2 = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
        (if seq2 = rt.wf_seq then store rt addr2 (rt.wf vs)
         else store rt addr2 vs);
        (if jfuse2 then ignore (pre rt next2 depth));
        (Array.unsafe_get steps jnext2) rt bp depth
  | Instr.Load (d, a) when ok d && ok a ->
      fun rt bp depth ->
        let seq = pre rt i depth in
        let rs = rt.rs in
        let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
        (if seq = rt.wf_seq then
           BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
         else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Load (d, a) ->
      fun rt bp depth ->
        let seq = pre rt i depth in
        let addr = addr_of rt (getr rt bp nregs a) in
        let v = BA1.unsafe_get rt.mem addr in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Store (s, a)
    when ok s && ok a && next < len
         && (match f.Prog.code.(next) with
            | Instr.Bin ((Op.Add | Op.Or), dd, aa, bb) ->
                ok dd && ok aa && ok bb
            | _ -> false) -> (
      (* store followed by the loop's index arithmetic *)
      let op2, d2, a2, b2 =
        match f.Prog.code.(next) with
        | Instr.Bin (op2, dd, aa, bb) -> (op2, dd, aa, bb)
        | _ -> assert false
      in
      let jnext2, jfuse2 = succ next2 in
      match op2 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let vs = BA1.unsafe_get rs (bp + s) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            (if seq = rt.wf_seq then store rt addr (rt.wf vs)
             else store rt addr vs);
            let seq2 = pre rt next depth in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let rs = rt.rs in
            let vs = BA1.unsafe_get rs (bp + s) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            (if seq = rt.wf_seq then store rt addr (rt.wf vs)
             else store rt addr vs);
            let seq2 = pre rt next depth in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.logor x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.logor x2 y2));
            (if jfuse2 then ignore (pre rt next2 depth));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Store (s, a) when ok s && ok a ->
      fun rt bp depth ->
        let seq = pre rt i depth in
        let rs = rt.rs in
        let vs = BA1.unsafe_get rs (bp + s) in
        let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
        (if seq = rt.wf_seq then store rt addr (rt.wf vs)
         else store rt addr vs);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Store (s, a) ->
      fun rt bp depth ->
        let seq = pre rt i depth in
        let vs = getr rt bp nregs s in
        let addr = addr_of rt (getr rt bp nregs a) in
        (if seq = rt.wf_seq then store rt addr (rt.wf vs)
         else store rt addr vs);
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Jmp l ->
      let l = tgt l in
      fun rt bp depth ->
        let _ = pre rt i depth in
        (Array.unsafe_get steps l) rt bp depth
  | Instr.Bnz (c, l1, l2) when ok c ->
      let l1 = tgt l1 and l2 = tgt l2 in
      fun rt bp depth ->
        let _ = pre rt i depth in
        (Array.unsafe_get steps
           (if is_true (BA1.unsafe_get rt.rs (bp + c)) then l1 else l2))
          rt bp depth
  | Instr.Bnz (c, l1, l2) ->
      let l1 = tgt l1 and l2 = tgt l2 in
      fun rt bp depth ->
        let _ = pre rt i depth in
        (Array.unsafe_get steps
           (if is_true (getr rt bp nregs c) then l1 else l2))
          rt bp depth
  | Instr.Call (callee, argregs, ret) -> (
      let nargs = Array.length argregs in
      let read_args rt bp =
        let argv = Array.make nargs 0L in
        for k = 0 to nargs - 1 do
          argv.(k) <- getr rt bp nregs argregs.(k)
        done;
        argv
      in
      match ret with
      | None ->
          fun rt bp depth ->
            let _ = pre rt i depth in
            let argv = read_args rt bp in
            ignore (call_exec rt callee argv (depth + 1));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Some d ->
          fun rt bp depth ->
            let seq = pre rt i depth in
            let argv = read_args rt bp in
            (match call_exec rt callee argv (depth + 1) with
            | Some v ->
                (* the fixed seq contract: the returned value is a write
                   attributed to the call's own seq, faultable there *)
                setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v)
            | None -> raise (Machine.Vm_trap "call: callee returned no value"));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth)
  | Instr.Ret (Some r) when ok r ->
      fun rt bp depth ->
        let _ = pre rt i depth in
        Some (BA1.unsafe_get rt.rs (bp + r))
  | Instr.Ret (Some r) ->
      fun rt bp depth ->
        let _ = pre rt i depth in
        Some (getr rt bp nregs r)
  | Instr.Ret None ->
      fun rt _ depth ->
        let _ = pre rt i depth in
        None
  | Instr.Intr (intr, argregs, ret) -> (
      let nargs = Array.length argregs in
      (* the interpreter reads every argument register up front *)
      let read_args rt bp =
        let argv = Array.make nargs 0L in
        for k = 0 to nargs - 1 do
          argv.(k) <- getr rt bp nregs argregs.(k)
        done;
        argv
      in
      match intr with
      | Instr.Randlc -> (
          let step_state rt bp depth =
            let seq = pre rt i depth in
            let argv = read_args rt bp in
            let saddr = addr_of rt argv.(0) in
            let a = Value.to_float argv.(1) in
            let x = Value.to_float (BA1.unsafe_get rt.mem saddr) in
            let x', r = Machine.randlc_step x a in
            store rt saddr (Value.of_float x');
            let v = Value.of_float r in
            if seq = rt.wf_seq then rt.wf v else v
          in
          match ret with
          | Some d ->
              fun rt bp depth ->
                let v = step_state rt bp depth in
                setr rt bp nregs d v;
                (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
          | None ->
              fun rt bp depth ->
                ignore (step_state rt bp depth);
                (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth)
      | Instr.Print fmt ->
          fun rt bp depth ->
            let _ = pre rt i depth in
            let argv = read_args rt bp in
            Buffer.add_string rt.out
              (Machine.format_output fmt (Array.to_list argv));
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Instr.MpiSend | Instr.MpiBarrier ->
          (* without an MPI runtime these are no-ops (the interpreter
             only records a trace event, which we do not produce) *)
          fun rt bp depth ->
            let _ = pre rt i depth in
            ignore (read_args rt bp);
            (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
      | Instr.MpiRecv ->
          fun rt bp depth ->
            let _ = pre rt i depth in
            ignore (read_args rt bp);
            raise (Machine.Vm_trap "mpi_recv without an MPI runtime")
      | Instr.MpiAllreduceSum -> (
          (* without an MPI runtime, the one-rank sum is the identity *)
          match ret with
          | Some d ->
              fun rt bp depth ->
                let seq = pre rt i depth in
                let argv = read_args rt bp in
                let v = argv.(0) in
                setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
                (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
          | None ->
              fun rt bp depth ->
                let _ = pre rt i depth in
                let argv = read_args rt bp in
                ignore argv.(0);
                (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth)
      | Instr.MpiRank | Instr.MpiSize -> (
          let v0 = match intr with Instr.MpiRank -> 0L | _ -> 1L in
          match ret with
          | Some d ->
              fun rt bp depth ->
                let seq = pre rt i depth in
                ignore (read_args rt bp);
                setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v0 else v0);
                (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth
          | None ->
              fun rt bp depth ->
                let _ = pre rt i depth in
                ignore (read_args rt bp);
                (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth)
      | Instr.Illegal msg ->
          (* the structured trap of an undecodable instruction-store
             word; mirrors the interpreter exactly (argument registers
             are read first, then the trap) *)
          let m = "illegal instruction: " ^ msg in
          fun rt bp depth ->
            let _ = pre rt i depth in
            ignore (read_args rt bp);
            raise (Machine.Vm_trap m))
  | Instr.Mark m ->
      fun rt bp depth ->
        let _ = pre rt i depth in
        if m = rt.iter_mark then rt.iter <- rt.iter + 1;
        (if jfuse then ignore (pre rt next depth));
        (Array.unsafe_get steps jnext) rt bp depth

let compile_fun
    ~(call_exec : rt -> int -> int64 array -> int -> int64 option)
    (f : Prog.func) : cfun =
  let len = Array.length f.Prog.code in
  let steps = Array.make (len + 2) halt in
  steps.(len + 1) <- bad_fetch;
  if len = 0 then
    (* the interpreter fetches code.(0) before anything else *)
    steps.(0) <- bad_fetch
  else
    for i = 0 to len - 1 do
      steps.(i) <- compile_step ~call_exec ~steps f i
    done;
  { steps; nregs = f.Prog.nregs }

let compile (prog : Prog.t) : plan =
  let exec_fwd : (rt -> int -> int64 array -> int -> int64 option) ref =
    ref (fun _ _ _ _ -> assert false)
  in
  let call_exec rt fidx args depth = !exec_fwd rt fidx args depth in
  let funs = Array.map (compile_fun ~call_exec) prog.Prog.funcs in
  let exec rt fidx (args : int64 array) (depth : int) : int64 option =
    if depth > Machine.max_call_depth then
      raise (Machine.Vm_trap "call stack overflow");
    let cf = funs.(fidx) in
    let na = Array.length args in
    if na > cf.nregs then invalid_arg "Array.blit";
    let bp = rt.sp in
    let needed = bp + cf.nregs in
    if needed > BA1.dim rt.rs then begin
      let bigger =
        BA1.create Bigarray.int64 Bigarray.c_layout
          (max (2 * needed) (2 * BA1.dim rt.rs))
      in
      BA1.blit rt.rs (BA1.sub bigger 0 (BA1.dim rt.rs));
      rt.rs <- bigger
    end;
    let rs = rt.rs in
    for k = bp to bp + cf.nregs - 1 do
      BA1.unsafe_set rs k 0L
    done;
    for k = 0 to na - 1 do
      BA1.unsafe_set rs (bp + k) args.(k)
    done;
    rt.sp <- bp + cf.nregs;
    let r = (Array.unsafe_get cf.steps 0) rt bp depth in
    rt.sp <- bp;
    r
  in
  exec_fwd := exec;
  {
    p_prog = prog;
    p_exec = exec;
    p_funs = funs;
    p_img = image_of prog;
    p_ck = Atomic.make [];
  }

(* --- the content-addressed plan cache ----------------------------------- *)

(* Plans are pure values compiled from pure values: keying by the
   digest of the marshaled program makes the cache content-addressed
   (structurally equal programs share a plan), and the physical-
   identity fast path makes the per-trial lookup free — App.bake hands
   out the same Prog.t to every trial of a campaign. *)
let cache : (string, plan) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()
let last : (Prog.t * plan) option Atomic.t = Atomic.make None

(* Instruction-store campaigns bake one mutated program per trial, each
   re-keying the cache with a distinct digest; without a bound a long
   campaign would retain every mutant's plan.  Plans are pure values, so
   resetting the cache only costs recompiles — the steady-state working
   set (the registry apps and their variants) is far below the cap. *)
let cache_cap = 1024

let digest (prog : Prog.t) : string = Digest.string (Marshal.to_string prog [])

let plan_for (prog : Prog.t) : plan =
  match Atomic.get last with
  | Some (p, pl) when p == prog -> pl
  | _ ->
      let key = digest prog in
      Mutex.lock cache_mutex;
      let pl =
        Fun.protect
          ~finally:(fun () -> Mutex.unlock cache_mutex)
          (fun () ->
            match Hashtbl.find_opt cache key with
            | Some pl -> pl
            | None ->
                if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
                let pl = compile prog in
                Hashtbl.add cache key pl;
                pl)
      in
      Atomic.set last (Some (prog, pl));
      pl


(* --- execution ----------------------------------------------------------- *)

let supported (cfg : Machine.config) : bool =
  match (cfg.Machine.sink, cfg.Machine.mpi, cfg.Machine.recover) with
  | None, None, None -> (
      (* cache faults need the simulated cache between every memory
         access — only the interpreter carries one *)
      match cfg.Machine.fault with
      | Some (Machine.Cache_fault _) -> false
      | Some (Machine.Write _ | Machine.Mem _) | None -> true)
  | _ -> false

(* Per-domain run state: the memory buffer, its dirty map, the register
   stack and the output buffer every compiled run on a domain reuses,
   so a trial allocates none of them.  Memory grows to the largest
   [mem_size] the domain has run.  It holds the image [dimg] except on
   the pages marked in [ddirty] and the pages [dalso] a restore wrote:
   a run of the same plan resets only those, a run of another plan
   resets all of it.  The register stack grows with call depth and
   needs no reset (a frame zeroes its registers on entry).  [runs]
   stamps the memory views handed out in results: it advances before
   the buffer is touched again.  [busy] is set for the length of a
   run; a run that starts while another is in flight on the same
   domain (a [tick] hook running a program) gets private state. *)
type dstate = {
  mutable dmem : ba;
  mutable ddirty : Bytes.t;
  mutable dimg : image;
  mutable dalso : int array;
  mutable drs : ba;
  dout : Buffer.t;
  runs : int Atomic.t;
  mutable busy : bool;
}

let no_image =
  { len = 0; addrs = [||]; vals = ba 0; first = [| 0 |]; bad = false }

let fresh_dstate () =
  {
    dmem = ba 0;
    ddirty = dirty_map 0;
    dimg = no_image;
    dalso = [||];
    drs = ba 4096;
    dout = Buffer.create 256;
    runs = Atomic.make 0;
    busy = false;
  }

let dstate_key = Domain.DLS.new_key fresh_dstate

(* instructions the compiled runs on this domain have executed *)
let executed_key = Domain.DLS.new_key (fun () -> ref 0)
let executed () : int = !(Domain.DLS.get executed_key)

(* an output buffer that grew past this is dropped rather than kept
   for the domain's lifetime (a faulty trial can print in a loop) *)
let out_keep = 1 lsl 16

(* claim the domain's state and reset its memory to [img] *)
let acquire (img : image) : dstate =
  let st =
    let st = Domain.DLS.get dstate_key in
    if st.busy then fresh_dstate () else st
  in
  st.busy <- true;
  Atomic.incr st.runs;
  if img.bad then begin
    (* the interpreter's image has exactly [mem_size] words *)
    st.busy <- false;
    invalid_arg "index out of bounds"
  end;
  let len = img.len in
  if BA1.dim st.dmem < len then begin
    st.dmem <- ba len;
    st.ddirty <- dirty_map len;
    st.dimg <- no_image
  end;
  let mem = st.dmem and dirty = st.ddirty in
  if st.dimg == img then begin
    let npages = pages_of len in
    for c = 0 to ((npages + 7) lsr 3) - 1 do
      if not (chunk_clear dirty c) then begin
        for p = c lsl 3 to min npages ((c lsl 3) + 8) - 1 do
          if Bytes.unsafe_get dirty p <> '\000' then reset_page mem img p
        done;
        Bytes.set_int64_ne dirty (c lsl 3) 0L
      end
    done;
    Array.iter (reset_page mem img) st.dalso
  end
  else begin
    BA1.fill (BA1.sub mem 0 len) 0L;
    Array.iteri
      (fun k a -> BA1.unsafe_set mem a (BA1.unsafe_get img.vals k))
      img.addrs;
    Bytes.fill dirty 0 (Bytes.length dirty) '\000';
    st.dimg <- img
  end;
  st.dalso <- [||];
  if Buffer.length st.dout > out_keep then Buffer.reset st.dout
  else Buffer.clear st.dout;
  st

let release (st : dstate) (rt : rt) : unit =
  st.drs <- rt.rs;
  st.busy <- false

(* bring a fresh run to clean snapshot [k]: memory, output, iteration
   and instruction counters (the entry frame's registers are set by
   [resume]) *)
let restore (rt : rt) (st : dstate) (set : ckset) (k : int) : unit =
  Array.iter
    (fun p ->
      match version set p k with
      | -1 -> ()
      | v -> load_page rt.mem rt.mem_len (snap_at set v) p)
    set.ever;
  st.dalso <- set.ever;
  let s = set.snaps.(k) in
  Buffer.add_substring rt.out set.out 0 s.s_out;
  rt.iter <- s.s_iter;
  rt.count <- s.s_seq

(* run the entry frame from snapshot [s] *)
let resume (p : plan) (rt : rt) (s : snap) : int64 option =
  let cf = p.p_funs.(p.p_prog.Prog.entry) in
  let n = cf.nregs in
  if BA1.dim rt.rs < n then rt.rs <- ba (2 * n);
  for r = 0 to n - 1 do
    BA1.unsafe_set rt.rs r (BA1.unsafe_get s.s_regs r)
  done;
  rt.sp <- n;
  let r = (Array.unsafe_get cf.steps s.s_pc) rt 0 0 in
  rt.sp <- 0;
  r

(* the result of a run that reached the state of clean snapshot [j]:
   the rest of the run is the clean run's, whose later pages are copied
   in *)
let rejoined (rt : rt) (st : dstate) (set : ckset) (j : int) : Machine.result =
  match set.fin with
  | None -> invalid_arg "Compiled.rejoined: the clean run has no end"
  | Some (f, outcome) ->
      Array.iter
        (fun p ->
          let vs = set.vers.(p) in
          let v = vs.(Array.length vs - 1) in
          if v > j then load_page rt.mem rt.mem_len (snap_at set v) p)
        set.ever;
      st.dalso <- set.ever;
      {
        Machine.outcome;
        instructions = f.s_seq;
        output = set.out;
        mem = Machine.live_mem rt.mem ~len:rt.mem_len ~runs:st.runs;
        iterations = f.s_iter + 1;
        restores = 0;
      }

(* One run of [p] under [cfg], from seq 0 or from snapshot [k] of a
   checkpoint set, with [probe] at [probe_at].  A [Rejoin] run that
   reaches the state of a clean snapshot ends there with the clean
   run's result; a [Record] run keeps its end state and output in its
   recorder. *)
let execute (p : plan) (cfg : Machine.config) (probe : probe)
    ~(probe_at : int) ~(from : (ckset * int) option) : Machine.result =
  let prog = p.p_prog in
  let mem_len = prog.Prog.mem_size in
  let wf_seq, wf =
    match cfg.Machine.fault with
    | Some (Machine.Write { seq; corruption }) ->
        (seq, Machine.corrupt corruption)
    | Some (Machine.Mem _ | Machine.Cache_fault _) | None -> (min_int, Fun.id)
  in
  let mf_seq, mf_addr, mf =
    match cfg.Machine.fault with
    | Some (Machine.Mem { seq; addr; corruption }) ->
        (seq, addr, Machine.corrupt corruption)
    | Some (Machine.Write _ | Machine.Cache_fault _) | None ->
        (min_int, 0, Fun.id)
  in
  let tick, has_tick =
    match cfg.Machine.tick with
    | Some f -> (f, true)
    | None -> ((fun () -> ()), false)
  in
  let st = acquire p.p_img in
  let rt =
    {
      mem = st.dmem;
      mem_len;
      dirty = st.ddirty;
      out = st.dout;
      count = 0;
      budget = cfg.Machine.budget;
      next_stop = 0;
      probe;
      probe_at;
      tick;
      has_tick;
      wf_seq;
      wf;
      mf_seq;
      mf_addr;
      mf;
      iter_mark = cfg.Machine.iter_mark;
      iter = -1;
      rs = st.drs;
      sp = 0;
    }
  in
  (match from with Some (set, k) -> restore rt st set k | None -> ());
  let start = rt.count in
  rt.next_stop <- stop_after rt (start - 1);
  let settle () =
    let n = Domain.DLS.get executed_key in
    n := !n + (rt.count - start);
    (match probe with
    | Record r ->
        (* capture unmarked the pages it took: mark them again for the
           next reset *)
        let mark (s : snap) =
          Array.iter (fun p -> Bytes.set rt.dirty p '\001') s.s_pages
        in
        List.iter mark r.taken;
        Option.iter (fun (s, _) -> mark s) r.fin;
        r.out <- Buffer.contents rt.out
    | Quiet | Rejoin _ -> ());
    release st rt
  in
  let ended =
    match
      match from with
      | None -> p.p_exec rt prog.Prog.entry [||] 0
      | Some (set, k) -> resume p rt set.snaps.(k)
    with
    | _ -> Ok Machine.Finished
    | exception Machine.Budget -> Ok Machine.Budget_exceeded
    | exception Machine.Vm_trap msg -> Ok (Machine.Trapped msg)
    | exception Op.Trap msg -> Ok (Machine.Trapped msg)
    | exception Rejoined j -> Error j
    | exception e ->
        (* a [tick] or fetch exception escapes unclassified, as in the
           interpreter; the domain's state stays usable *)
        settle ();
        raise e
  in
  let result =
    match (ended, probe) with
    | Error j, Rejoin r -> rejoined rt st r.set j
    | Error _, (Quiet | Record _) -> assert false
    | Ok outcome, _ ->
        (match (probe, outcome) with
        | Record r, (Machine.Finished | Machine.Trapped _) ->
            r.fin <- Some (capture rt ~nregs:0 ~seq:rt.count ~pc:(-1), outcome)
        | _ -> ());
        {
          Machine.outcome;
          instructions = rt.count;
          output = Buffer.contents rt.out;
          mem = Machine.live_mem rt.mem ~len:mem_len ~runs:st.runs;
          iterations = rt.iter + 1;
          restores = 0;
        }
  in
  settle ();
  result

(* --- checkpointed trials -------------------------------------------------- *)

(* Instructions between snapshots: about 32 snapshots per clean run, so
   that even a short program gets several, and at most [max_every]
   apart. *)
let max_every = 4096

(* take the checkpoints of [p] under [cfg]'s iteration mark from a clean
   run within [cfg]'s budget: a first run measures the clean length,
   which sets the snapshot interval, a second records *)
let record (p : plan) (cfg : Machine.config) : ckset =
  let prog = p.p_prog in
  let clean =
    {
      Machine.default_config with
      budget = cfg.Machine.budget;
      iter_mark = cfg.Machine.iter_mark;
    }
  in
  let nregs =
    let e = prog.Prog.entry in
    if e >= 0 && e < Array.length p.p_funs then p.p_funs.(e).nregs else 0
  in
  let r =
    match execute p clean Quiet ~probe_at:max_int ~from:None with
    | c ->
        let every =
          max 1 (min max_every (c.Machine.instructions / 32))
        in
        let r = { every; nregs; taken = []; fin = None; out = "" } in
        (try ignore (execute p clean (Record r) ~probe_at:every ~from:None)
         with Invalid_argument _ -> ());
        r
    | exception Invalid_argument _ ->
        { every = max_int; nregs; taken = []; fin = None; out = "" }
  in
  let first =
    {
      s_seq = 0;
      s_pc = 0;
      s_regs = (let z = ba nregs in BA1.fill z 0L; z);
      s_iter = -1;
      s_out = 0;
      s_pages = [||];
      s_words = ba 0;
    }
  in
  let snaps = Array.of_list (first :: List.rev r.taken) in
  let held = Array.make (pages_of prog.Prog.mem_size) [] in
  let hold v (s : snap) =
    Array.iter (fun pg -> held.(pg) <- v :: held.(pg)) s.s_pages
  in
  Array.iteri hold snaps;
  Option.iter (fun (s, _) -> hold (Array.length snaps) s) r.fin;
  let vers = Array.map (fun l -> Array.of_list (List.rev l)) held in
  let ever =
    Array.of_list
      (List.filter
         (fun pg -> Array.length vers.(pg) > 0)
         (List.init (Array.length vers) Fun.id))
  in
  {
    mark = cfg.Machine.iter_mark;
    limit = cfg.Machine.budget;
    img = p.p_img;
    snaps;
    fin = r.fin;
    out = r.out;
    vers;
    ever;
  }

(* a set serves [cfg] if it was taken under its iteration mark and its
   clean run either ended or ran at least as far as [cfg]'s budget *)
let rec find_set (cfg : Machine.config) (sets : ckset list) : ckset option =
  match sets with
  | [] -> None
  | set :: rest ->
      if
        set.mark = cfg.Machine.iter_mark
        && (Option.is_some set.fin || set.limit >= cfg.Machine.budget)
      then Some set
      else find_set cfg rest

let ck_mutex = Mutex.create ()

(* the plan's checkpoints for [cfg], recorded on first use *)
let checkpoints (p : plan) (cfg : Machine.config) : ckset =
  match find_set cfg (Atomic.get p.p_ck) with
  | Some set -> set
  | None ->
      Mutex.lock ck_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock ck_mutex)
        (fun () ->
          match find_set cfg (Atomic.get p.p_ck) with
          | Some set -> set
          | None ->
              let set = record p cfg in
              Atomic.set p.p_ck
                (set
                :: List.filter
                     (fun s -> s.mark <> set.mark)
                     (Atomic.get p.p_ck));
              set)

(* A faulty trial starts at the last snapshot at or before both its
   fault and its budget — everything before it repeats the clean run —
   and, when the clean run ended within the budget, probes each later
   snapshot: a state equal to the clean one there can only go on as the
   clean run did. *)
let trial (p : plan) (cfg : Machine.config) (fault_seq : int) :
    Machine.result =
  let set = checkpoints p cfg in
  let snaps = set.snaps in
  let n = Array.length snaps in
  let upto = min fault_seq cfg.Machine.budget in
  let rec last k =
    if k + 1 < n && snaps.(k + 1).s_seq <= upto then last (k + 1) else k
  in
  let k = last 0 in
  let rec after j =
    if j < n && snaps.(j).s_seq <= fault_seq then after (j + 1) else j
  in
  let j = after (k + 1) in
  let from = if k = 0 then None else Some (set, k) in
  match set.fin with
  | Some (f, _) when j < n && f.s_seq <= cfg.Machine.budget ->
      execute p cfg
        (Rejoin { set; next = j; from_out = snaps.(k).s_out; hot = -1 })
        ~probe_at:snaps.(j).s_seq ~from
  | Some _ | None -> execute p cfg Quiet ~probe_at:max_int ~from

let checkpoint_seqs (p : plan) (cfg : Machine.config) : int array =
  Array.map (fun s -> s.s_seq) (checkpoints p cfg).snaps

let run (p : plan) (cfg : Machine.config) : Machine.result =
  if not (supported cfg) then
    invalid_arg
      "Compiled.run: config needs the interpreter (sink, MPI hooks, \
       recovery, or a cache fault attached)";
  match (cfg.Machine.tick, cfg.Machine.fault) with
  | None, Some (Machine.Write { seq; _ } | Machine.Mem { seq; _ }) ->
      trial p cfg seq
  | _ -> execute p cfg Quiet ~probe_at:max_int ~from:None
