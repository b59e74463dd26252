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
    output buffer and resets them at the start of every run, so a
    trial allocates none of them; the result's {!Machine.mem} is a
    view of the domain's buffer, valid until the domain's next
    compiled run.  The
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
    {- {e checkpoint/rollback}: snapshots capture region bookkeeping
       the compiled thunks do not maintain.}}
    {!supported} detects these configurations so callers
    ({!Backend.run}) fall back to {!Machine.run} explicitly instead of
    silently diverging.

    Plans are cached content-addressed (digest of the marshaled
    program) with a physical-identity fast path, so campaigns compile
    each program once no matter how many trials run. *)

module BA1 = Bigarray.Array1

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) BA1.t

(* --- per-run mutable state --------------------------------------------- *)

(* Everything a step thunk needs at run time.  Fault checks are
   pre-resolved to two sentinel sequence numbers and two corruption
   closures: the hot path pays one integer compare per fault kind per
   instruction instead of the interpreter's constructor match. *)
type rt = {
  mem : ba;  (** the domain's memory buffer; words past [mem_len] are unused *)
  mem_len : int;
  out : Buffer.t;
  mutable count : int;  (** dynamic instruction counter (the seq source) *)
  budget : int;
  mutable next_stop : int;
      (** first seq needing the slow prologue: min of the budget and a
          still-pending memory-fault seq *)
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

(* [Value.truth] and [Value.is_true], local so they inline into the
   step thunks: across a module compiled [-opaque] they would be calls
   that box their [int64] *)
let[@inline] truth (b : bool) : int64 = if b then 1L else 0L
let[@inline] is_true (v : int64) : bool = not (Int64.equal v 0L)

(* mirrors the interpreter's [apply_mem_fault]: bounds-check the
   faulted address (a wild address is a segfault, like any access) *)
let apply_mem (rt : rt) : unit =
  let a = rt.mf_addr in
  if a < 0 || a >= rt.mem_len then
    raise (Machine.Vm_trap (Printf.sprintf "segfault at address %d" a));
  BA1.unsafe_set rt.mem a (rt.mf (BA1.unsafe_get rt.mem a))

(* cold half of the per-instruction prologue: runs only when a step's
   seq reaches [next_stop], i.e. the budget boundary or a pending
   memory fault.  Replicates the interpreter's exact order — budget
   check, tick, counter advance, memory-fault application — so that
   instruction counts and trap points stay bit-identical. *)
let slow_pre (rt : rt) (seq : int) : unit =
  if seq >= rt.budget then raise Machine.Budget;
  if rt.has_tick then rt.tick ();
  rt.count <- seq + 1;
  if seq = rt.mf_seq then apply_mem rt;
  rt.next_stop <- rt.budget

(* the per-instruction prologue.  The fast path pays one compare
   against [next_stop] (folding the budget and memory-fault checks),
   the tick test, and the counter advance.  Returns this instruction's
   dynamic seq. *)
let[@inline] pre (rt : rt) : int =
  let seq = rt.count in
  (if seq >= rt.next_stop then slow_pre rt seq
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
        let seq = pre rt in
        BA1.unsafe_set rt.rs (bp + d) (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Const (d, v) ->
      fun rt bp depth ->
        let seq = pre rt in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt));
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
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y < 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y < 0)));
            let _ = pre rt in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Le ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y <= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y <= 0)));
            let _ = pre rt in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Gt ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y > 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y > 0)));
            let _ = pre rt in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Ge ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y >= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y >= 0)));
            let _ = pre rt in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | Op.Eq ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.equal x y)))
             else BA1.unsafe_set rs (bp + d) (truth (Int64.equal x y)));
            let _ = pre rt in
            (Array.unsafe_get steps
               (if is_true (BA1.unsafe_get rs (bp + d)) then l1 else l2))
              rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (not (Int64.equal x y))))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (not (Int64.equal x y))));
            let _ = pre rt in
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
      let jnext2, jfuse2 = succ (i + 2) in
      match op1 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            let seq2 = pre rt in
            let vs = BA1.unsafe_get rs (bp + s2) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            BA1.unsafe_set rt.mem addr
              (if seq2 = rt.wf_seq then rt.wf vs else vs);
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth
      | Op.Ashr ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let sh = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.shift_right x sh))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_right x sh));
            let seq2 = pre rt in
            let vs = BA1.unsafe_get rs (bp + s2) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            BA1.unsafe_set rt.mem addr
              (if seq2 = rt.wf_seq then rt.wf vs else vs);
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            let seq2 = pre rt in
            let vs = BA1.unsafe_get rs (bp + s2) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            BA1.unsafe_set rt.mem addr
              (if seq2 = rt.wf_seq then rt.wf vs else vs);
            (if jfuse2 then ignore (pre rt));
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
      let jnext2, jfuse2 = succ (i + 2) in
      match op1 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            let seq2 = pre rt in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d2) (BA1.unsafe_get rt.mem addr));
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            let seq2 = pre rt in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d2) (BA1.unsafe_get rt.mem addr));
            (if jfuse2 then ignore (pre rt));
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
      let jnext2, jfuse2 = succ (i + 2) in
      match op1 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            let seq2 = pre rt in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            let seq2 = pre rt in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Bin (op, d, a, b) when ok d && ok a && ok b -> (
      (* the hot ALU ops are expanded inline — no per-application
         closure call, unboxed fault-free path — with the exact
         eval_bin semantics; trapping and rare ops keep the
         one-time-dispatch closure *)
      match op with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.add x y))
             else BA1.unsafe_set rs (bp + d) (Int64.add x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Sub ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.sub x y))
             else BA1.unsafe_set rs (bp + d) (Int64.sub x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Mul ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.mul x y))
             else BA1.unsafe_set rs (bp + d) (Int64.mul x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Div ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            if Int64.equal y 0L then raise (Op.Trap "integer division by zero");
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.div x y))
             else BA1.unsafe_set rs (bp + d) (Int64.div x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Rem ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            if Int64.equal y 0L then raise (Op.Trap "integer remainder by zero");
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.rem x y))
             else BA1.unsafe_set rs (bp + d) (Int64.rem x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.And ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logand x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logand x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Or ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logor x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Xor ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.logxor x y))
             else BA1.unsafe_set rs (bp + d) (Int64.logxor x y));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Shl ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let s = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.shift_left x s))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_left x s));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Lshr ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let s = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Int64.shift_right_logical x s))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_right_logical x s));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Ashr ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let s = Int64.to_int y land 63 in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.shift_right x s))
             else BA1.unsafe_set rs (bp + d) (Int64.shift_right x s));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Eq ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.equal x y)))
             else BA1.unsafe_set rs (bp + d) (truth (Int64.equal x y)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Ne ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (not (Int64.equal x y))))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (not (Int64.equal x y))));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Lt ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y < 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y < 0)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Le ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y <= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y <= 0)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Gt ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y > 0)))
             else
               BA1.unsafe_set rs (bp + d) (truth (Int64.compare x y > 0)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Ge ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Int64.compare x y >= 0)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Int64.compare x y >= 0)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fadd ->
          fun rt bp depth ->
            let seq = pre rt in
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
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fsub ->
          fun rt bp depth ->
            let seq = pre rt in
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
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fmul ->
          fun rt bp depth ->
            let seq = pre rt in
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
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fdiv ->
          fun rt bp depth ->
            let seq = pre rt in
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
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Flt ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x < Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x < Value.to_float y)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fle ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x <= Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x <= Value.to_float y)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fgt ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x > Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x > Value.to_float y)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fge ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (truth (Value.to_float x >= Value.to_float y)))
             else
               BA1.unsafe_set rs (bp + d)
                 (truth (Value.to_float x >= Value.to_float y)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Imin ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let v = if Int64.compare x y <= 0 then x else y in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf v)
             else BA1.unsafe_set rs (bp + d) v);
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Imax ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a)
            and y = BA1.unsafe_get rs (bp + b) in
            let v = if Int64.compare x y >= 0 then x else y in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf v)
             else BA1.unsafe_set rs (bp + d) v);
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Feq | Op.Fne | Op.Fmin | Op.Fmax ->
          let g = Op.bin_fn op in
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let v = g (BA1.unsafe_get rs (bp + a)) (BA1.unsafe_get rs (bp + b)) in
            BA1.unsafe_set rs (bp + d) (if seq = rt.wf_seq then rt.wf v else v);
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth)
  | Instr.Bin (op, d, a, b) ->
      let g = Op.bin_fn op in
      fun rt bp depth ->
        let seq = pre rt in
        let v = g (getr rt bp nregs a) (getr rt bp nregs b) in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Un (op, d, a) when ok d && ok a -> (
      match op with
      | Op.Neg ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.neg x))
             else BA1.unsafe_set rs (bp + d) (Int64.neg x));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Not ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (Int64.lognot x))
             else BA1.unsafe_set rs (bp + d) (Int64.lognot x));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fneg ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Value.of_float (-.Value.to_float x)))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (-.Value.to_float x)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fabs ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Value.of_float (Float.abs (Value.to_float x))))
             else
               BA1.unsafe_set rs (bp + d)
                 (Value.of_float (Float.abs (Value.to_float x))));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Trunc32 ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Int64.shift_right (Int64.shift_left x 32) 32))
             else
               BA1.unsafe_set rs (bp + d)
                 (Int64.shift_right (Int64.shift_left x 32) 32));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.FloatOfInt ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let x = BA1.unsafe_get rs (bp + a) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d)
                 (rt.wf (Value.of_float (Int64.to_float x)))
             else
               BA1.unsafe_set rs (bp + d) (Value.of_float (Int64.to_float x)));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.F32round ->
          fun rt bp depth ->
            let seq = pre rt in
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
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Op.Fsqrt | Op.Fsin | Op.Fcos | Op.IntOfFloat ->
          let g = Op.un_fn op in
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let v = g (BA1.unsafe_get rs (bp + a)) in
            BA1.unsafe_set rs (bp + d) (if seq = rt.wf_seq then rt.wf v else v);
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth)
  | Instr.Un (op, d, a) ->
      let g = Op.un_fn op in
      fun rt bp depth ->
        let seq = pre rt in
        let v = g (getr rt bp nregs a) in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt));
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
      let jnext2, jfuse2 = succ (i + 2) in
      match op2 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
            let seq2 = pre rt in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            (if seq = rt.wf_seq then
               BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
             else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
            let seq2 = pre rt in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            let sh = Int64.to_int y2 land 63 in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.shift_right x2 sh))
             else BA1.unsafe_set rs (bp + d2) (Int64.shift_right x2 sh));
            (if jfuse2 then ignore (pre rt));
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
      let jnext2, jfuse2 = succ (i + 2) in
      fun rt bp depth ->
        let seq = pre rt in
        let rs = rt.rs in
        let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
        (if seq = rt.wf_seq then
           BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
         else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
        let seq2 = pre rt in
        let vs = BA1.unsafe_get rs (bp + s2) in
        let addr2 = addr_of rt (BA1.unsafe_get rs (bp + a2)) in
        BA1.unsafe_set rt.mem addr2
          (if seq2 = rt.wf_seq then rt.wf vs else vs);
        (if jfuse2 then ignore (pre rt));
        (Array.unsafe_get steps jnext2) rt bp depth
  | Instr.Load (d, a) when ok d && ok a ->
      fun rt bp depth ->
        let seq = pre rt in
        let rs = rt.rs in
        let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
        (if seq = rt.wf_seq then
           BA1.unsafe_set rs (bp + d) (rt.wf (BA1.unsafe_get rt.mem addr))
         else BA1.unsafe_set rs (bp + d) (BA1.unsafe_get rt.mem addr));
        (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Load (d, a) ->
      fun rt bp depth ->
        let seq = pre rt in
        let addr = addr_of rt (getr rt bp nregs a) in
        let v = BA1.unsafe_get rt.mem addr in
        setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
        (if jfuse then ignore (pre rt));
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
      let jnext2, jfuse2 = succ (i + 2) in
      match op2 with
      | Op.Add ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let vs = BA1.unsafe_get rs (bp + s) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            BA1.unsafe_set rt.mem addr
              (if seq = rt.wf_seq then rt.wf vs else vs);
            let seq2 = pre rt in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.add x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.add x2 y2));
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth
      | _ ->
          fun rt bp depth ->
            let seq = pre rt in
            let rs = rt.rs in
            let vs = BA1.unsafe_get rs (bp + s) in
            let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
            BA1.unsafe_set rt.mem addr
              (if seq = rt.wf_seq then rt.wf vs else vs);
            let seq2 = pre rt in
            let x2 = BA1.unsafe_get rs (bp + a2)
            and y2 = BA1.unsafe_get rs (bp + b2) in
            (if seq2 = rt.wf_seq then
               BA1.unsafe_set rs (bp + d2) (rt.wf (Int64.logor x2 y2))
             else BA1.unsafe_set rs (bp + d2) (Int64.logor x2 y2));
            (if jfuse2 then ignore (pre rt));
            (Array.unsafe_get steps jnext2) rt bp depth)
  | Instr.Store (s, a) when ok s && ok a ->
      fun rt bp depth ->
        let seq = pre rt in
        let rs = rt.rs in
        let vs = BA1.unsafe_get rs (bp + s) in
        let addr = addr_of rt (BA1.unsafe_get rs (bp + a)) in
        BA1.unsafe_set rt.mem addr (if seq = rt.wf_seq then rt.wf vs else vs);
        (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Store (s, a) ->
      fun rt bp depth ->
        let seq = pre rt in
        let vs = getr rt bp nregs s in
        let addr = addr_of rt (getr rt bp nregs a) in
        BA1.unsafe_set rt.mem addr (if seq = rt.wf_seq then rt.wf vs else vs);
        (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
  | Instr.Jmp l ->
      let l = tgt l in
      fun rt bp depth ->
        let _ = pre rt in
        (Array.unsafe_get steps l) rt bp depth
  | Instr.Bnz (c, l1, l2) when ok c ->
      let l1 = tgt l1 and l2 = tgt l2 in
      fun rt bp depth ->
        let _ = pre rt in
        (Array.unsafe_get steps
           (if is_true (BA1.unsafe_get rt.rs (bp + c)) then l1 else l2))
          rt bp depth
  | Instr.Bnz (c, l1, l2) ->
      let l1 = tgt l1 and l2 = tgt l2 in
      fun rt bp depth ->
        let _ = pre rt in
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
            let _ = pre rt in
            let argv = read_args rt bp in
            ignore (call_exec rt callee argv (depth + 1));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Some d ->
          fun rt bp depth ->
            let seq = pre rt in
            let argv = read_args rt bp in
            (match call_exec rt callee argv (depth + 1) with
            | Some v ->
                (* the fixed seq contract: the returned value is a write
                   attributed to the call's own seq, faultable there *)
                setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v)
            | None -> raise (Machine.Vm_trap "call: callee returned no value"));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth)
  | Instr.Ret (Some r) when ok r ->
      fun rt bp _ ->
        let _ = pre rt in
        Some (BA1.unsafe_get rt.rs (bp + r))
  | Instr.Ret (Some r) ->
      fun rt bp _ ->
        let _ = pre rt in
        Some (getr rt bp nregs r)
  | Instr.Ret None ->
      fun rt _ _ ->
        let _ = pre rt in
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
          let step_state rt bp =
            let seq = pre rt in
            let argv = read_args rt bp in
            let saddr = addr_of rt argv.(0) in
            let a = Value.to_float argv.(1) in
            let x = Value.to_float (BA1.unsafe_get rt.mem saddr) in
            let x', r = Machine.randlc_step x a in
            BA1.unsafe_set rt.mem saddr (Value.of_float x');
            let v = Value.of_float r in
            if seq = rt.wf_seq then rt.wf v else v
          in
          match ret with
          | Some d ->
              fun rt bp depth ->
                let v = step_state rt bp in
                setr rt bp nregs d v;
                (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
          | None ->
              fun rt bp depth ->
                ignore (step_state rt bp);
                (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth)
      | Instr.Print fmt ->
          fun rt bp depth ->
            let _ = pre rt in
            let argv = read_args rt bp in
            Buffer.add_string rt.out
              (Machine.format_output fmt (Array.to_list argv));
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Instr.MpiSend | Instr.MpiBarrier ->
          (* without an MPI runtime these are no-ops (the interpreter
             only records a trace event, which we do not produce) *)
          fun rt bp depth ->
            let _ = pre rt in
            ignore (read_args rt bp);
            (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
      | Instr.MpiRecv ->
          fun rt bp _ ->
            let _ = pre rt in
            ignore (read_args rt bp);
            raise (Machine.Vm_trap "mpi_recv without an MPI runtime")
      | Instr.MpiAllreduceSum -> (
          (* without an MPI runtime, the one-rank sum is the identity *)
          match ret with
          | Some d ->
              fun rt bp depth ->
                let seq = pre rt in
                let argv = read_args rt bp in
                let v = argv.(0) in
                setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v else v);
                (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
          | None ->
              fun rt bp depth ->
                let _ = pre rt in
                let argv = read_args rt bp in
                ignore argv.(0);
                (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth)
      | Instr.MpiRank | Instr.MpiSize -> (
          let v0 = match intr with Instr.MpiRank -> 0L | _ -> 1L in
          match ret with
          | Some d ->
              fun rt bp depth ->
                let seq = pre rt in
                ignore (read_args rt bp);
                setr rt bp nregs d (if seq = rt.wf_seq then rt.wf v0 else v0);
                (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth
          | None ->
              fun rt bp depth ->
                let _ = pre rt in
                ignore (read_args rt bp);
                (if jfuse then ignore (pre rt));
        (Array.unsafe_get steps jnext) rt bp depth)
      | Instr.Illegal msg ->
          (* the structured trap of an undecodable instruction-store
             word; mirrors the interpreter exactly (argument registers
             are read first, then the trap) *)
          let m = "illegal instruction: " ^ msg in
          fun rt bp _ ->
            let _ = pre rt in
            ignore (read_args rt bp);
            raise (Machine.Vm_trap m))
  | Instr.Mark m ->
      fun rt bp depth ->
        let _ = pre rt in
        if m = rt.iter_mark then rt.iter <- rt.iter + 1;
        (if jfuse then ignore (pre rt));
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
  { p_prog = prog; p_exec = exec }

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
  match
    (cfg.Machine.trace, cfg.Machine.sink, cfg.Machine.mpi, cfg.Machine.recover)
  with
  | None, None, None, None -> (
      (* cache faults need the simulated cache between every memory
         access — only the interpreter carries one *)
      match cfg.Machine.fault with
      | Some (Machine.Cache_fault _) -> false
      | Some
          ( Machine.Flip_write _ | Machine.Flip_mem _ | Machine.Mask_write _
          | Machine.Mask_mem _ )
      | None ->
          true)
  | _ -> false

(* Per-domain run state: the memory buffer, the register stack and the
   output buffer every compiled run on a domain reuses, so a trial
   allocates none of them.  Memory grows to the largest [mem_size] the
   domain has run and is reset to the program's initial image at the
   start of each run; the register stack grows with call depth and
   needs no reset (a frame zeroes its registers on entry).  [runs]
   stamps the memory views handed out in results: it advances before
   the buffer is touched again.  [busy] is set for the length of a
   run; a run that starts while another is in flight on the same
   domain (a [tick] hook running a program) gets private state. *)
type dstate = {
  mutable dmem : ba;
  mutable drs : ba;
  dout : Buffer.t;
  runs : int Atomic.t;
  mutable busy : bool;
}

let fresh_dstate () =
  {
    dmem = BA1.create Bigarray.int64 Bigarray.c_layout 0;
    drs = BA1.create Bigarray.int64 Bigarray.c_layout 4096;
    dout = Buffer.create 256;
    runs = Atomic.make 0;
    busy = false;
  }

let dstate_key = Domain.DLS.new_key fresh_dstate

(* an output buffer that grew past this is dropped rather than kept
   for the domain's lifetime (a faulty trial can print in a loop) *)
let out_keep = 1 lsl 16

(* claim the domain's state and reset it for a program of [mem_len]
   words initialized by [init] *)
let acquire ~(mem_len : int) (init : (int * int64) list) : dstate =
  let st =
    let st = Domain.DLS.get dstate_key in
    if st.busy then fresh_dstate () else st
  in
  st.busy <- true;
  Atomic.incr st.runs;
  if BA1.dim st.dmem < mem_len then
    st.dmem <- BA1.create Bigarray.int64 Bigarray.c_layout mem_len;
  let mem = st.dmem in
  for a = 0 to mem_len - 1 do
    BA1.unsafe_set mem a 0L
  done;
  List.iter
    (fun (a, v) ->
      (* the interpreter's image has exactly [mem_len] words *)
      if a < 0 || a >= mem_len then begin
        st.busy <- false;
        invalid_arg "index out of bounds"
      end;
      BA1.unsafe_set mem a v)
    init;
  if Buffer.length st.dout > out_keep then Buffer.reset st.dout
  else Buffer.clear st.dout;
  st

let release (st : dstate) (rt : rt) : unit =
  st.drs <- rt.rs;
  st.busy <- false

let run (p : plan) (cfg : Machine.config) : Machine.result =
  if not (supported cfg) then
    invalid_arg
      "Compiled.run: config needs the interpreter (trace, sink, MPI hooks, \
       recovery, or a cache fault attached)";
  let prog = p.p_prog in
  let mem_len = prog.Prog.mem_size in
  let wf_seq, wf =
    match cfg.Machine.fault with
    | Some (Machine.Flip_write { seq; bit }) ->
        (seq, fun v -> Value.flip_bit v bit)
    | Some (Machine.Mask_write { seq; and_mask; or_mask; xor_mask }) ->
        (seq, fun v -> Machine.apply_masks v ~and_mask ~or_mask ~xor_mask)
    | Some (Machine.Flip_mem _ | Machine.Mask_mem _ | Machine.Cache_fault _)
    | None ->
        (min_int, Fun.id)
  in
  let mf_seq, mf_addr, mf =
    match cfg.Machine.fault with
    | Some (Machine.Flip_mem { seq; addr; bit }) ->
        (seq, addr, fun v -> Value.flip_bit v bit)
    | Some (Machine.Mask_mem { seq; addr; and_mask; or_mask; xor_mask }) ->
        (seq, addr, fun v -> Machine.apply_masks v ~and_mask ~or_mask ~xor_mask)
    | Some
        (Machine.Flip_write _ | Machine.Mask_write _ | Machine.Cache_fault _)
    | None ->
        (min_int, 0, Fun.id)
  in
  let tick, has_tick =
    match cfg.Machine.tick with
    | Some f -> (f, true)
    | None -> ((fun () -> ()), false)
  in
  let st = acquire ~mem_len prog.Prog.init_mem in
  let rt =
    {
      mem = st.dmem;
      mem_len;
      out = st.dout;
      count = 0;
      budget = cfg.Machine.budget;
      next_stop =
        (if mf_seq >= 0 then min cfg.Machine.budget mf_seq
         else cfg.Machine.budget);
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
  let outcome =
    match p.p_exec rt prog.Prog.entry [||] 0 with
    | _ -> Machine.Finished
    | exception Machine.Budget -> Machine.Budget_exceeded
    | exception Machine.Vm_trap msg -> Machine.Trapped msg
    | exception Op.Trap msg -> Machine.Trapped msg
    | exception e ->
        (* a [tick] or fetch exception escapes unclassified, as in the
           interpreter; the domain's state stays usable *)
        release st rt;
        raise e
  in
  release st rt;
  {
    Machine.outcome;
    instructions = rt.count;
    output = Buffer.contents rt.out;
    mem = Machine.live_mem rt.mem ~len:mem_len ~runs:st.runs;
    iterations = rt.iter + 1;
    restores = 0;
  }
