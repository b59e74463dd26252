(** The FlipTracker virtual machine.

    Executes an IR program with three orthogonal extensions over a plain
    interpreter:
    {ul
    {- an optional {e tracer} that records one {!Trace.event} per
       executed instruction (the LLVM-Tracer substitute);}
    {- an optional {e fault}: a {!corruption} (a single-bit flip, or
       any and/or/xor mask) applied either to the value written by the
       n-th dynamic instruction, or to a memory word when the dynamic
       instruction counter reaches n (used for region-entry input
       injections);}
    {- optional {e MPI hooks} connecting the MPI intrinsics to the
       simulated runtime of [ft_mpi].}}

    Crashes of the fault-manifestation model are detected here: memory
    traps, arithmetic traps, stack overflow, and hangs (instruction
    budget exceeded). *)

type corruption = { and_mask : int64; or_mask : int64; xor_mask : int64 }

let flip (b : int) : corruption =
  if b < 0 || b > 63 then invalid_arg "Machine.flip: bit out of range";
  { and_mask = -1L; or_mask = 0L; xor_mask = Int64.shift_left 1L b }

let corrupt (c : corruption) (v : int64) : int64 =
  Int64.logxor (Int64.logor (Int64.logand v c.and_mask) c.or_mask) c.xor_mask

let flipped_bit (c : corruption) : int option =
  List.find_opt (fun b -> flip b = c) (List.init 64 Fun.id)

type fault =
  | Write of { seq : int; corruption : corruption }
      (** corrupt the value written by dynamic instruction [seq] *)
  | Mem of { seq : int; addr : int; corruption : corruption }
      (** corrupt [mem.(addr)] just before instruction [seq] runs *)
  | Cache_fault of {
      seq : int;
      geom : Cache_model.geometry;
      loc : Cache_model.loc;
      corruption : corruption;
    }
      (** corrupt one cache metadata field or data word just before
          instruction [seq] runs.  Arming this fault makes the VM route
          every memory access through a {!Cache_model.t} of [geom];
          the cache is semantically transparent until the corruption
          fires, so the pre-fault execution is identical to an uncached
          run.  Only the interpreter simulates the cache — the compiled
          backend reports such configs unsupported and [Backend] falls
          back. *)

type outcome =
  | Finished
  | Trapped of string  (** segfault, arithmetic trap, stack overflow *)
  | Budget_exceeded    (** the hang of the fault-manifestation model *)

let masks_to_string (c : corruption) : string =
  Printf.sprintf "and=%Lx or=%Lx xor=%Lx" c.and_mask c.or_mask c.xor_mask

let fault_to_string = function
  | Write { seq; corruption = c } -> (
      match flipped_bit c with
      | Some bit ->
          Printf.sprintf "flip bit %d of the value written at instruction %d"
            bit seq
      | None ->
          Printf.sprintf "corrupt the value written at instruction %d (%s)" seq
            (masks_to_string c))
  | Mem { seq; addr; corruption = c } -> (
      match flipped_bit c with
      | Some bit ->
          Printf.sprintf "flip bit %d of memory word %d before instruction %d"
            bit addr seq
      | None ->
          Printf.sprintf "corrupt memory word %d before instruction %d (%s)"
            addr seq (masks_to_string c))
  | Cache_fault { seq; geom; loc; corruption = c } ->
      Printf.sprintf "corrupt cache (%s) %s before instruction %d (%s)"
        (Cache_model.geometry_to_string geom)
        (Cache_model.loc_to_string loc)
        seq (masks_to_string c)

type recover = {
  max_restores : int;
      (** rollbacks allowed before the trap is allowed to escape *)
  snapshot_interval : int;
      (** minimum dynamic instructions between two snapshots: bounds
          the full-copy checkpoint cost on region-dense programs *)
}

let default_recover = { max_restores = 3; snapshot_interval = 50_000 }

type mpi_hooks = {
  rank : int;
  size : int;
  send : dest:int -> tag:int -> Value.t -> unit;
  recv : src:int -> tag:int -> Value.t;
  allreduce_sum : Value.t -> Value.t;
  barrier : unit -> unit;
}

type config = {
  budget : int;  (** max dynamic instructions before declaring a hang *)
  fault : fault option;
  sink : (Trace.event -> unit) option;
      (** each event is passed to the callback, like a tracer writing to
          a file; exceptions it raises propagate to the caller
          unclassified *)
  iter_mark : int;  (** mark id that delimits main-loop iterations, or -1 *)
  mpi : mpi_hooks option;
  recover : recover option;
      (** checkpoint/rollback: snapshot the entry frame at region
          boundaries (rate-limited by [snapshot_interval]) and, when a
          trap escapes to the entry frame, restore the last snapshot
          instead of crashing — up to [max_restores] times.  The dynamic
          instruction counter is {e not} rolled back, so a transient
          fault keyed on a sequence number never re-fires on replay. *)
}

let default_config =
  {
    budget = 500_000_000;
    fault = None;
    sink = None;
    iter_mark = -1;
    mpi = None;
    recover = None;
  }

(* --- final memory views ------------------------------------------------- *)

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The interpreter hands back its own boxed image.  The compiled
   backend hands back the live per-domain buffer it will reuse for the
   next trial, with the buffer owner's run counter as it stood when the
   view was made: once the counter moves on, the buffer holds another
   trial's memory and every read of the view raises. *)
type mem =
  | Boxed of int64 array
  | Live of { buf : ba; len : int; runs : int Atomic.t; run : int }

let stale () =
  invalid_arg
    "Machine.mem: stale view (a later run on its domain reused the memory)"

(* checked after the read, so a reuse racing the read is caught too *)
let check_live (runs : int Atomic.t) (run : int) : unit =
  if Atomic.get runs <> run then stale ()

let mem_of_array (a : int64 array) : mem = Boxed a

let live_mem (buf : ba) ~(len : int) ~(runs : int Atomic.t) : mem =
  Live { buf; len; runs; run = Atomic.get runs }

let mem_length = function
  | Boxed a -> Array.length a
  | Live l ->
      check_live l.runs l.run;
      l.len

let mem_get (m : mem) (i : int) : int64 =
  match m with
  | Boxed a -> a.(i)
  | Live l ->
      if i < 0 || i >= l.len then invalid_arg "index out of bounds";
      let v = Bigarray.Array1.unsafe_get l.buf i in
      check_live l.runs l.run;
      v

let mem_to_array (m : mem) : int64 array =
  match m with
  | Boxed a -> Array.copy a
  | Live l ->
      let a = Array.init l.len (fun i -> Bigarray.Array1.unsafe_get l.buf i) in
      check_live l.runs l.run;
      a

let mem_equal (a : mem) (b : mem) : bool =
  let n = mem_length a in
  n = mem_length b
  &&
  let rec go i =
    i >= n || (Int64.equal (mem_get a i) (mem_get b i) && go (i + 1))
  in
  go 0

type result = {
  outcome : outcome;
  instructions : int;  (** dynamic instructions executed *)
  output : string;     (** accumulated formatted prints *)
  mem : mem;           (** final memory image *)
  iterations : int;    (** main-loop iterations observed (from markers) *)
  restores : int;      (** checkpoint rollbacks taken (0 without [recover]) *)
}

exception Budget
exception Vm_trap of string

(* --- NPB randlc ------------------------------------------------------- *)

let r23 = 0.5 ** 23.
let t23 = 2.0 ** 23.
let r46 = 0.5 ** 46.
let t46 = 2.0 ** 46.

(** One step of the NPB 46-bit linear congruential generator.  Returns
    [(new_state, uniform_in_0_1)]. *)
let randlc_step (x : float) (a : float) : float * float =
  let a1 = Float.of_int (Float.to_int (r23 *. a)) in
  let a2 = a -. (t23 *. a1) in
  let x1 = Float.of_int (Float.to_int (r23 *. x)) in
  let x2 = x -. (t23 *. x1) in
  let t1 = (a1 *. x2) +. (a2 *. x1) in
  let t2 = Float.of_int (Float.to_int (r23 *. t1)) in
  let z = t1 -. (t23 *. t2) in
  let t3 = (t23 *. z) +. (a2 *. x2) in
  let t4 = Float.of_int (Float.to_int (r46 *. t3)) in
  let x' = t3 -. (t46 *. t4) in
  (x', r46 *. x')

(* --- C-style formatting ---------------------------------------------- *)

(** Render a C-style format with the given values.  Supported
    directives: [%d %x] (i64) and [%e %f %g] (f64), with optional
    flags/width/precision.  This is where the paper's Data Truncation
    pattern manifests for output: a ["%12.6e"] print discards mantissa
    bits. *)
let format_output (fmt : string) (vals : Value.t list) : string =
  let buf = Buffer.create (String.length fmt + 16) in
  let vals = ref vals in
  let take () =
    match !vals with
    | [] -> raise (Vm_trap "print: missing argument")
    | v :: rest ->
        vals := rest;
        v
  in
  let n = String.length fmt in
  let rec scan i =
    if i >= n then ()
    else if Char.equal fmt.[i] '%' && i + 1 < n then
      if Char.equal fmt.[i + 1] '%' then begin
        Buffer.add_char buf '%';
        scan (i + 2)
      end
      else begin
        let rec conv j =
          if j >= n then raise (Vm_trap "print: truncated format")
          else
            match fmt.[j] with
            | 'd' | 'x' ->
                let spec = String.sub fmt i (j - i) ^ "L" ^ String.make 1 fmt.[j] in
                let v = take () in
                Buffer.add_string buf
                  (Printf.sprintf
                     (Scanf.format_from_string spec "%Ld")
                     v);
                scan (j + 1)
            | 'e' | 'f' | 'g' ->
                let spec = String.sub fmt i (j - i + 1) in
                let v = take () in
                Buffer.add_string buf
                  (Printf.sprintf
                     (Scanf.format_from_string spec "%e")
                     (Value.to_float v));
                scan (j + 1)
            | '0' .. '9' | '.' | '-' | '+' | ' ' -> conv (j + 1)
            | c -> raise (Vm_trap (Printf.sprintf "print: bad directive %%%c" c))
        in
        conv (i + 1)
      end
    else begin
      Buffer.add_char buf fmt.[i];
      scan (i + 1)
    end
  in
  scan 0;
  Buffer.contents buf

(* --- execution -------------------------------------------------------- *)

let max_call_depth = 4096

let run (prog : Prog.t) (cfg : config) : result =
  let mem = Array.make prog.mem_size 0L in
  List.iter (fun (a, v) -> mem.(a) <- v) prog.init_mem;
  let out = Buffer.create 256 in
  let count = ref 0 in
  let next_act = ref 0 in
  let iter = ref (-1) in
  let nregions = Array.length prog.region_table in
  let inst_counters = Array.make (max 1 nregions) 0 in
  let prev_eff = ref (-1) in
  let cur_inst = ref (-1) in
  let check_addr a =
    if a < 0 || a >= Array.length mem then
      raise (Vm_trap (Printf.sprintf "segfault at address %d" a))
  in
  let addr_of_value (v : Value.t) : int =
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    then raise (Vm_trap "segfault: wild address");
    let a = Value.to_int v in
    check_addr a;
    a
  in
  (* the cache is only simulated when a cache fault is armed: fault-free
     it is semantically transparent, so plain runs (and every historical
     campaign count) keep the direct flat-memory path *)
  let cache =
    match cfg.fault with
    | Some (Cache_fault { geom; _ }) -> Some (Cache_model.create geom)
    | Some (Write _ | Mem _) | None -> None
  in
  let mread a =
    match cache with None -> mem.(a) | Some c -> Cache_model.read c mem a
  in
  let mwrite a v =
    match cache with
    | None -> mem.(a) <- v
    | Some c -> Cache_model.write c mem a v
  in
  let maybe_flip seq v =
    match cfg.fault with
    | Some (Write { seq = s; corruption }) when s = seq -> corrupt corruption v
    | Some (Write _ | Mem _ | Cache_fault _) | None -> v
  in
  let apply_mem_fault seq =
    match cfg.fault with
    | Some (Mem { seq = s; addr; corruption }) when s = seq ->
        check_addr addr;
        mem.(addr) <- corrupt corruption mem.(addr)
    | Some (Cache_fault { seq = s; loc; corruption; _ }) when s = seq -> (
        match cache with
        | Some c -> Cache_model.corrupt c loc ~f:(corrupt corruption)
        | None -> ())
    | Some (Write _ | Mem _ | Cache_fault _) | None -> ()
  in
  (* without a sink, plain instructions skip building the read/write
     arrays of [record], the dominant allocation of a traced run.  An
     untraced run still allocates: intrinsics build their argument
     arrays, and registers and memory hold boxed values, so each
     computed value costs a box.  Campaigns, whose minor GCs
     synchronize every domain in OCaml 5, take the compiled backend
     instead. *)
  let recording = Option.is_some cfg.sink in
  let restores = ref 0 in
  let rec exec_fun fidx (args : int64 array) (inherited : int) (depth : int) :
      int64 option =
    if depth > max_call_depth then raise (Vm_trap "call stack overflow");
    let f = prog.funcs.(fidx) in
    let regs = Array.make f.nregs 0L in
    Array.blit args 0 regs 0 (Array.length args);
    let act = !next_act in
    incr next_act;
    let pc = ref 0 in
    let result = ref None in
    let running = ref true in
    (* checkpoint/rollback applies to the entry frame only: a snapshot
       captures everything a replay from [pc] needs (memory, entry-frame
       registers, region bookkeeping, output length).  The dynamic
       instruction counter stays monotonic across restores so a
       seq-keyed transient fault never re-fires, and [Budget] is never
       caught — rollback recovers traps, not hangs. *)
    let protected = depth = 0 && cfg.recover <> None in
    let max_restores, snap_interval =
      match cfg.recover with
      | Some r -> (r.max_restores, max 1 r.snapshot_interval)
      | None -> (0, max_int)
    in
    let snap_mem = if protected then Array.copy mem else [||] in
    let snap_regs = if protected then Array.copy regs else [||] in
    let snap_counters = if protected then Array.copy inst_counters else [||] in
    let snap_pc = ref 0 in
    let snap_iter = ref !iter in
    let snap_prev_eff = ref !prev_eff in
    let snap_cur_inst = ref !cur_inst in
    let snap_out_len = ref (Buffer.length out) in
    let snap_taken = ref false in
    let last_snap_seq = ref min_int in
    let take_snapshot seq =
      (* dirty cache lines must land in [mem] before it is copied, or a
         restore would resurrect pre-writeback values *)
      (match cache with Some c -> Cache_model.flush c mem | None -> ());
      Array.blit mem 0 snap_mem 0 (Array.length mem);
      Array.blit regs 0 snap_regs 0 (Array.length regs);
      Array.blit inst_counters 0 snap_counters 0 (Array.length inst_counters);
      snap_pc := !pc;
      snap_iter := !iter;
      snap_prev_eff := !prev_eff;
      snap_cur_inst := !cur_inst;
      snap_out_len := Buffer.length out;
      snap_taken := true;
      last_snap_seq := seq
    in
    let try_restore () =
      if !snap_taken && !restores < max_restores then begin
        incr restores;
        (* rollback: buffered (possibly corrupted) lines die with the
           discarded state — the restored memory is the truth *)
        (match cache with Some c -> Cache_model.invalidate c | None -> ());
        Array.blit snap_mem 0 mem 0 (Array.length mem);
        Array.blit snap_regs 0 regs 0 (Array.length regs);
        Array.blit snap_counters 0 inst_counters 0 (Array.length inst_counters);
        pc := !snap_pc;
        iter := !snap_iter;
        prev_eff := !snap_prev_eff;
        cur_inst := !snap_cur_inst;
        Buffer.truncate out !snap_out_len;
        true
      end
      else false
    in
    (* built once per activation and applied in full, never partially:
       defined inside the dispatch loop it would allocate a closure for
       every instruction, recorded or not *)
    let record seq i eff op reads writes =
      match cfg.sink with
      | None -> ()
      | Some k ->
          k
            {
              Trace.seq;
              fidx;
              pc = i;
              act;
              line = f.lines.(i);
              region = eff;
              instance = (if eff >= 0 then !cur_inst else -1);
              iter = !iter;
              op;
              reads;
              writes;
            }
    in
    let body () =
    while !running do
      let i = !pc in
      let ins = f.code.(i) in
      let seq = !count in
      if seq >= cfg.budget then raise Budget;
      count := seq + 1;
      apply_mem_fault seq;
      let static_r = f.regions.(i) in
      let eff = if static_r >= 0 then static_r else inherited in
      let boundary = eff <> !prev_eff in
      if boundary then begin
        if eff >= 0 then begin
          cur_inst := inst_counters.(eff);
          inst_counters.(eff) <- !cur_inst + 1
        end
        else cur_inst := -1;
        prev_eff := eff
      end;
      if
        protected
        && ((not !snap_taken)
           || (boundary && seq - !last_snap_seq >= snap_interval))
      then take_snapshot seq;
      (match ins with
      | Const (d, v) ->
          let v = maybe_flip seq v in
          regs.(d) <- v;
          if recording then
            record seq i eff Trace.OConst [||] [| (Loc.Reg (act, d), v) |];
          incr pc
      | Bin (op, d, a, b) ->
          let va = regs.(a) and vb = regs.(b) in
          let v = maybe_flip seq (Op.eval_bin op va vb) in
          regs.(d) <- v;
          if recording then
            record seq i eff (Trace.OBin op)
              [| (Loc.Reg (act, a), va); (Loc.Reg (act, b), vb) |]
              [| (Loc.Reg (act, d), v) |];
          incr pc
      | Un (op, d, a) ->
          let va = regs.(a) in
          let v = maybe_flip seq (Op.eval_un op va) in
          regs.(d) <- v;
          if recording then
            record seq i eff (Trace.OUn op)
              [| (Loc.Reg (act, a), va) |]
              [| (Loc.Reg (act, d), v) |];
          incr pc
      | Load (d, a) ->
          let va = regs.(a) in
          let addr = addr_of_value va in
          let v0 = mread addr in
          let v = maybe_flip seq v0 in
          regs.(d) <- v;
          if recording then
            record seq i eff Trace.OLoad
              [| (Loc.Reg (act, a), va); (Loc.Mem addr, v0) |]
              [| (Loc.Reg (act, d), v) |];
          incr pc
      | Store (s, a) ->
          let vs = regs.(s) and va = regs.(a) in
          let addr = addr_of_value va in
          let v = maybe_flip seq vs in
          mwrite addr v;
          if recording then
            record seq i eff Trace.OStore
              [| (Loc.Reg (act, s), vs); (Loc.Reg (act, a), va) |]
              [| (Loc.Mem addr, v) |];
          incr pc
      | Jmp l ->
          if recording then record seq i eff Trace.OJmp [||] [||];
          pc := l
      | Bnz (cnd, l1, l2) ->
          let vc = regs.(cnd) in
          let taken = Value.is_true vc in
          if recording then
            record seq i eff (Trace.OBr taken)
              [| (Loc.Reg (act, cnd), vc) |]
              [||];
          pc := if taken then l1 else l2
      | Call (callee, argregs, ret) ->
          let argv = Array.map (fun r -> regs.(r)) argregs in
          if recording then
            record seq i eff Trace.OCall
              (Array.mapi (fun k r -> (Loc.Reg (act, r), argv.(k))) argregs)
              [||];
          let rv = exec_fun callee argv eff (depth + 1) in
          (match (ret, rv) with
          | Some d, Some v ->
              (* the returned value is a write performed by the call
                 instruction itself: attribute it to the call's own seq.
                 The attribution event must NOT consume a fresh dynamic
                 seq — traced and untraced runs must produce identical
                 seq streams, or fault sites harvested from a trace land
                 on the wrong instruction in untraced campaign runs.
                 Like every other write, the value is faultable (at the
                 call's seq), traced or not. *)
              let v = maybe_flip seq v in
              regs.(d) <- v;
              if recording then
                record seq i eff Trace.ORet [||] [| (Loc.Reg (act, d), v) |]
          | Some _, None ->
              raise (Vm_trap "call: callee returned no value")
          | None, (Some _ | None) -> ());
          incr pc
      | Ret r ->
          let v = Option.map (fun r -> regs.(r)) r in
          if recording then
            record seq i eff Trace.ORet
              (match r with
              | Some r -> [| (Loc.Reg (act, r), regs.(r)) |]
              | None -> [||])
              [||];
          result := v;
          running := false
      | Intr (intr, argregs, ret) ->
          let argv = Array.map (fun r -> regs.(r)) argregs in
          let reads =
            Array.mapi (fun k r -> (Loc.Reg (act, r), argv.(k))) argregs
          in
          let set_ret name v extra_reads extra_writes =
            let v = maybe_flip seq v in
            (match ret with
            | Some d -> regs.(d) <- v
            | None -> ());
            let writes =
              match ret with
              | Some d -> Array.append [| (Loc.Reg (act, d), v) |] extra_writes
              | None -> extra_writes
            in
            record seq i eff (Trace.OIntr name)
              (Array.append reads extra_reads)
              writes
          in
          (match intr with
          | Randlc ->
              let saddr = addr_of_value argv.(0) in
              let a = Value.to_float argv.(1) in
              let x = Value.to_float (mread saddr) in
              let x', r = randlc_step x a in
              mwrite saddr (Value.of_float x');
              set_ret "randlc" (Value.of_float r)
                [| (Loc.Mem saddr, Value.of_float x) |]
                [| (Loc.Mem saddr, Value.of_float x') |]
          | Print fmtstr ->
              Buffer.add_string out (format_output fmtstr (Array.to_list argv));
              (* the format string travels in the opclass so analyses can
                 re-render values and detect output truncation masking *)
              record seq i eff (Trace.OIntr ("print:" ^ fmtstr)) reads [||]
          | MpiSend -> (
              match cfg.mpi with
              | None -> record seq i eff (Trace.OIntr "mpi_send") reads [||]
              | Some m ->
                  m.send ~dest:(Value.to_int argv.(0))
                    ~tag:(Value.to_int argv.(1)) argv.(2);
                  record seq i eff (Trace.OIntr "mpi_send") reads [||])
          | MpiRecv -> (
              match cfg.mpi with
              | None -> raise (Vm_trap "mpi_recv without an MPI runtime")
              | Some m ->
                  let v =
                    m.recv ~src:(Value.to_int argv.(0))
                      ~tag:(Value.to_int argv.(1))
                  in
                  set_ret "mpi_recv" v [||] [||])
          | MpiAllreduceSum -> (
              match cfg.mpi with
              | None -> set_ret "mpi_allreduce" argv.(0) [||] [||]
              | Some m -> set_ret "mpi_allreduce" (m.allreduce_sum argv.(0)) [||] [||])
          | MpiBarrier ->
              (match cfg.mpi with None -> () | Some m -> m.barrier ());
              record seq i eff (Trace.OIntr "mpi_barrier") reads [||]
          | MpiRank ->
              let r = match cfg.mpi with None -> 0 | Some m -> m.rank in
              set_ret "mpi_rank" (Value.of_int r) [||] [||]
          | MpiSize ->
              let s = match cfg.mpi with None -> 1 | Some m -> m.size in
              set_ret "mpi_size" (Value.of_int s) [||] [||]
          | Illegal msg -> raise (Vm_trap ("illegal instruction: " ^ msg)));
          incr pc
      | Mark m ->
          if m = cfg.iter_mark then incr iter;
          if recording then record seq i eff (Trace.OMark m) [||] [||];
          incr pc);
      if !pc >= Array.length f.code then running := false
    done
    in
    let rec guarded () =
      try body ()
      with (Vm_trap _ | Op.Trap _) as exn when protected ->
        if try_restore () then guarded () else raise exn
    in
    if protected then guarded () else body ();
    !result
  in
  let outcome =
    try
      ignore (exec_fun prog.entry [||] (-1) 0);
      Finished
    with
    | Budget -> Budget_exceeded
    | Vm_trap msg -> Trapped msg
    | Op.Trap msg -> Trapped msg
  in
  (* surface buffered stores in the returned memory image; with a
     corrupted tag this is where a lost or misdirected writeback becomes
     visible to verification *)
  (match cache with Some c -> Cache_model.flush c mem | None -> ());
  {
    outcome;
    instructions = !count;
    output = Buffer.contents out;
    mem = Boxed mem;
    iterations = !iter + 1;
    restores = !restores;
  }

(** Convenience: run without tracing and without faults. *)
let run_plain ?(budget = default_config.budget) (prog : Prog.t) : result =
  run prog { default_config with budget }

(** Convenience: run streaming every event into [sink] without
    retaining any of them (e.g. a [Trace_io] writer over a file). *)
let run_sink ?(budget = default_config.budget) ?(iter_mark = -1) ?fault
    ~(sink : Trace.event -> unit) (prog : Prog.t) : result =
  run prog
    { default_config with budget; iter_mark; fault; sink = Some sink }

(** Convenience: run with a fresh trace; returns the result and trace. *)
let run_traced ?budget ?iter_mark ?fault (prog : Prog.t) : result * Trace.t =
  let t = Trace.create () in
  let r = run_sink ?budget ?iter_mark ?fault ~sink:(Trace.push t) prog in
  (r, t)
