(** Fault-injection campaigns (the FlipIt substitute).

    A campaign samples fault sites uniformly from a target population,
    runs the program once per sampled fault, and classifies each run
    under the paper's fault-manifestation model:
    {ul
    {- Verification Success — the run finishes and the application's
       verification accepts the result (bit-exact or within the
       application's own tolerance);}
    {- Verification Failed — the run finishes but verification rejects
       the result (silent data corruption);}
    {- Crashed — trap, or hang detected by the instruction budget.}}

    Targets: the {e internal locations} of a code-region instance are
    the destinations of its dynamic instructions (a [Machine.Write] at
    a dynamic sequence number inside the instance); its {e input
    locations} are the memory words the fault-free DDDG classifies as
    region inputs (a [Machine.Mem] at the instance entry). *)

type outcome_class = Success | Failed | Crashed | Recovered

type counts = {
  success : int;
  failed : int;
  crashed : int;
  recovered : int;
      (** runs that verified correct only after checkpoint rollback;
          always 0 under the default [No_recovery] policy, so historical
          counts are untouched *)
  trials : int;
  infra : int;
      (** trials lost to infrastructure failures (a worker that kept
          raising after bounded retries).  Counted separately and
          excluded from [trials] and the success rate, so an infra
          fault can never masquerade as an SDC or a crash. *)
}

let zero_counts =
  { success = 0; failed = 0; crashed = 0; recovered = 0; trials = 0; infra = 0 }

let add_outcome (c : counts) = function
  | Success -> { c with success = c.success + 1; trials = c.trials + 1 }
  | Failed -> { c with failed = c.failed + 1; trials = c.trials + 1 }
  | Crashed -> { c with crashed = c.crashed + 1; trials = c.trials + 1 }
  | Recovered -> { c with recovered = c.recovered + 1; trials = c.trials + 1 }

(* [part] as a fraction of the classified trials *)
let rate part (c : counts) : float =
  if c.trials = 0 then 0.0 else Float.of_int part /. Float.of_int c.trials

(** Success rate (Equation 1).  Infra errors are not trials: they say
    nothing about the application's resilience.  Recovered runs are not
    successes either: they measure the recovery mechanism, not the
    application's {e natural} resilience. *)
let success_rate (c : counts) : float = rate c.success c

let sdc_rate (c : counts) = rate c.failed c
let crash_rate (c : counts) = rate c.crashed c
let recovered_rate (c : counts) = rate c.recovered c

let pp_counts ppf (c : counts) =
  Fmt.pf ppf "success=%d failed=%d crashed=%d trials=%d rate=%.3f" c.success
    c.failed c.crashed c.trials (success_rate c);
  if c.recovered > 0 then Fmt.pf ppf " recovered=%d" c.recovered;
  if c.infra > 0 then Fmt.pf ppf " infra-errors=%d" c.infra

(** Recovery policy of a campaign: [No_recovery] reproduces the
    historical behavior exactly; [Rollback] arms the VM's
    checkpoint/rollback with a restore budget. *)
type recovery = No_recovery | Rollback of { max_restores : int }

let recovery_to_string = function
  | No_recovery -> "none"
  | Rollback { max_restores } -> Printf.sprintf "rollback:%d" max_restores

(** Concrete spellings for did-you-mean suggestions. *)
let recovery_names = [ "none"; "rollback"; "rollback:3" ]

let recovery_of_string (s : string) : (recovery, string) result =
  match s with
  | "none" -> Ok No_recovery
  | "rollback" ->
      Ok (Rollback { max_restores = Machine.default_recover.max_restores })
  | _ -> (
      let n =
        if String.length s > 9 && String.equal (String.sub s 0 9) "rollback:"
        then int_of_string_opt (String.sub s 9 (String.length s - 9))
        else None
      in
      match n with
      | Some k when k >= 1 -> Ok (Rollback { max_restores = k })
      | Some _ -> Error (Printf.sprintf "rollback budget must be >= 1: %s" s)
      | None -> Error (Printf.sprintf "unknown recovery policy %S" s))

let machine_recover = function
  | No_recovery -> None
  | Rollback { max_restores } ->
      Some { Machine.default_recover with max_restores }

(** The classification kernel over a {e resolved} execution function
    and an optional VM fault.  [None] is the instruction-store case:
    the corruption already lives in the (mutated) program the runner
    was resolved for, so the run itself is fault-free. *)
let classify_run (run : Machine.config -> Machine.result) ~(budget : int)
    ?(recovery = No_recovery) ~(verify : Machine.result -> bool)
    (fault : Machine.fault option) : outcome_class =
  let r =
    run
      {
        Machine.default_config with
        budget;
        fault;
        recover = machine_recover recovery;
      }
  in
  match r.outcome with
  | Machine.Finished ->
      if not (verify r) then Failed
      else if r.restores > 0 then Recovered
      else Success
  | Machine.Trapped _ | Machine.Budget_exceeded -> Crashed

(** {!classify_run} with a mandatory VM fault: the historical kernel
    {!trial_fun} classifies register/memory-surface trials through. *)
let run_one_with (run : Machine.config -> Machine.result) ~(budget : int)
    ?(recovery = No_recovery) ~(verify : Machine.result -> bool)
    (fault : Machine.fault) : outcome_class =
  classify_run run ~budget ~recovery ~verify (Some fault)

(** Run one faulty execution and classify it.  [verify] receives the
    machine result of a {e finished} run and decides Success/Failed;
    traps and budget exhaustion (a hang) classify as Crashed without
    consulting it.  Under a [Rollback] policy, a run that finishes
    verified but took at least one restore classifies as Recovered:
    correct output, but not naturally so.
    [backend] picks the execution engine; the compiled default is
    count- and outcome-identical to the interpreter, and a [Rollback]
    policy falls back to the interpreter automatically (recovery
    rollback is interpreter-only machinery). *)
let run_one ?(backend = Backend.default) (prog : Prog.t) ~(budget : int)
    ?(recovery = No_recovery) ~(verify : Machine.result -> bool)
    (fault : Machine.fault) : outcome_class =
  run_one_with (Backend.runner backend prog) ~budget ~recovery ~verify fault

(* --- fault-site populations ------------------------------------------ *)

(** A fault site carries the width of the datum it corrupts: the
    paper's subjects are C programs whose integers are 32-bit, so
    integer-typed destinations expose 32 candidate bits while doubles
    expose all 64. *)
type site = { seq : int; bits : int }

type input_site = { addr : int; bits : int }

(* bit width of the value an event with opclass [op] writes, given the
   address its store writes ([store_addr]) and the memory address its
   load reads ([load_addr]), each -1 when there is none *)
let write_bits (prog : Prog.t) (op : Trace.opclass) ~store_addr ~load_addr :
    int =
  let of_ty = function Ty.F64 -> 64 | Ty.I64 -> 32 in
  let of_addr a =
    if a < 0 then 64
    else match Prog.type_of_addr prog a with Some t -> of_ty t | None -> 64
  in
  match op with
  | Trace.OBin op -> if Op.bin_is_float op then 64 else 32
  | Trace.OUn op -> (
      match op with
      | Op.Fneg | Op.Fabs | Op.Fsqrt | Op.Fsin | Op.Fcos | Op.FloatOfInt
      | Op.F32round ->
          64
      | Op.Neg | Op.Not | Op.Trunc32 | Op.IntOfFloat -> 32)
  | Trace.OStore -> of_addr store_addr
  | Trace.OLoad ->
      (* the loaded value's width is that of its memory source *)
      of_addr load_addr
  | Trace.OIntr _ -> 64
  | Trace.OConst | Trace.OJmp | Trace.OBr _ | Trace.OCall | Trace.ORet
  | Trace.OMark _ ->
      64

(* the address of the first memory location among keys [keys.(k)],
   [k < n], or -1 *)
let first_mem_addr (keys : int array) n =
  let rec go k =
    if k >= n then -1
    else if Loc.key_is_mem keys.(k) then
      match Loc.of_key keys.(k) with Loc.Mem a -> a | Loc.Reg _ -> go (k + 1)
    else go (k + 1)
  in
  go 0

(* bit width of the value written by a trace event *)
let event_bits (prog : Prog.t) (e : Trace.event) : int =
  let addr accs =
    match Array.find_opt (fun (l, _) -> Loc.is_mem l) accs with
    | Some (Loc.Mem a, _) -> a
    | Some _ | None -> -1
  in
  let store_addr =
    match e.writes with [| (Loc.Mem a, _) |] -> a | _ -> -1
  in
  write_bits prog e.op ~store_addr ~load_addr:(addr e.reads)

(** The one site collector: [add] takes events in execution order and
    keeps a site for each that writes a value; [sites ()] returns them
    in that order.  Fed from a stored trace or from a running VM's
    sink, it yields the same population. *)
let site_collector (prog : Prog.t) :
    (Trace.cursor -> unit) * (unit -> site array) =
  let acc = ref [] in
  ( (fun (c : Trace.cursor) ->
      if c.nwrites > 0 then begin
        let store_addr =
          if c.nwrites = 1 then first_mem_addr c.wkeys 1 else -1
        in
        let load_addr =
          match c.op with
          | Trace.OLoad -> first_mem_addr c.rkeys c.nreads
          | _ -> -1
        in
        acc :=
          { seq = c.seq; bits = write_bits prog c.op ~store_addr ~load_addr }
          :: !acc
      end),
    fun () -> Array.of_list (List.rev !acc) )

(** Fault sites of the value-writing instructions in the event-index
    range [lo, hi) of [trace]. *)
let writing_sites (prog : Prog.t) (trace : Trace.t) ~(lo : int) ~(hi : int) :
    site array =
  let add, sites = site_collector prog in
  let c = Trace.cursor () in
  for i = lo to hi - 1 do
    Trace.load trace i c;
    add c
  done;
  sites ()

type target =
  | Internal of { sites : site array }
      (** flip a destination bit of one of these dynamic instructions *)
  | Input of { entry_seq : int; sites : input_site array }
      (** flip a bit of an input memory word at region entry *)
  | Mem_over_time of { seqs : int array; sites : input_site array }
      (** flip a bit of one of these memory words at a random point of
          an execution window (soft errors in resident data) *)
  | Cache_struct of {
      geom : Cache_model.geometry;
      meta : bool;
          (** [true]: the metadata surface (tag/valid/dirty per line);
              [false]: the data words of the lines *)
      seq_hi : int;
          (** the corruption lands at a uniform dynamic seq in
              [0, seq_hi) — the whole-run window, kept as a range
              rather than an explicit seq array so the population
              stays O(1) in memory *)
      mem_words : int;  (** program memory size, fixes the tag width *)
    }
      (** microarchitectural cache-structure faults; trials arm a
          [Machine.Cache_fault], which routes the run through the
          simulated cache *)
  | Istore_struct of { enc : Icodec.t }
      (** bit flips in the binary-encoded instruction store: persistent
          (present from the first instruction), so the population has
          no time dimension — one site per bit of every encoded word *)

(* injectable bits per cache line under each surface: tag + valid +
   dirty for the metadata, 64 per data word otherwise *)
let cache_line_bits ~(geom : Cache_model.geometry) ~(mem_words : int)
    ~(meta : bool) : int =
  if meta then Cache_model.tag_bits geom ~mem_words + 2
  else 64 * geom.Cache_model.line_words

let target_population = function
  | Internal { sites } ->
      Array.fold_left (fun a (s : site) -> a + s.bits) 0 sites
  | Input { sites; _ } ->
      Array.fold_left (fun a (s : input_site) -> a + s.bits) 0 sites
  | Mem_over_time { seqs; sites } ->
      Array.length seqs
      * Array.fold_left (fun a (s : input_site) -> a + s.bits) 0 sites
  | Cache_struct { geom; meta; seq_hi; mem_words } ->
      seq_hi * Cache_model.lines geom * cache_line_bits ~geom ~mem_words ~meta
  | Istore_struct { enc } -> 64 * Icodec.total_words enc

(** Phantom-site detector.  Sites are harvested from {e traced} runs
    and injected into {e untraced} ones, so the contract is that both
    produce the same dynamic seq stream; a harvested seq at or beyond
    the untraced fault-free instruction count can never fire and its
    trials silently measure nothing.  Returns the offending seqs
    (sorted, deduplicated) given the untraced count — empty is the only
    acceptable answer, and the test suite pins it for every registry
    app.  This is the check that catches the traced-only seq
    consumption bug class. *)
let unreachable_sites (t : target) ~(instructions : int) : int list =
  let bad seq = seq >= instructions in
  let seqs =
    match t with
    | Internal { sites } ->
        Array.to_list sites |> List.filter_map (fun (s : site) ->
            if bad s.seq then Some s.seq else None)
    | Input { entry_seq; _ } -> if bad entry_seq then [ entry_seq ] else []
    | Mem_over_time { seqs; _ } -> Array.to_list seqs |> List.filter bad
    | Cache_struct { seq_hi; _ } ->
        (* the window is a range: its last seq is the only candidate *)
        if seq_hi > 0 && bad (seq_hi - 1) then [ seq_hi - 1 ] else []
    | Istore_struct _ -> []  (* persistent faults carry no seqs *)
  in
  List.sort_uniq compare seqs

(** Sample a fault for the target under a fault model.  Site selection
    is shared by all models; only the corruption differs.  The RNG draw
    order under [Single_bit] (site choose, then bit; for
    [Mem_over_time], site choose, bit, then window seq — record fields
    evaluate right-to-left) is pinned by the historical code, keeping
    default-model campaigns count-identical. *)
let sample_fault ?(model = Fault_model.Single_bit) (rng : Rng.t) (t : target) :
    Machine.fault =
  match t with
  | Internal { sites } ->
      let s = Rng.choose rng sites in
      Machine.Write
        { seq = s.seq; corruption = Fault_model.sample model rng ~bits:s.bits }
  | Input { entry_seq; sites } ->
      let s = Rng.choose rng sites in
      Machine.Mem
        {
          seq = entry_seq;
          addr = s.addr;
          corruption = Fault_model.sample model rng ~bits:s.bits;
        }
  | Mem_over_time { seqs; sites } ->
      let s = Rng.choose rng sites in
      let corruption = Fault_model.sample model rng ~bits:s.bits in
      let seq = Rng.choose rng seqs in
      Machine.Mem { seq; addr = s.addr; corruption }
  | Cache_struct { geom; meta; seq_hi; mem_words } ->
      (* draw order (pinned for these structures from their first
         release): set, way, field slot / data word, corruption, seq.
         Metadata slots are uniform over the line's injectable bits, so
         the tag is hit [tag_bits] times as often as valid or dirty —
         matching the flat bits-are-sites design of every other
         surface. *)
      let set = Rng.int rng geom.Cache_model.sets in
      let way = Rng.int rng geom.Cache_model.ways in
      let field, bits =
        if meta then begin
          let tb = Cache_model.tag_bits geom ~mem_words in
          let slot = Rng.int rng (tb + 2) in
          if slot < tb then (Cache_model.Tag, tb)
          else if slot = tb then (Cache_model.Valid, 1)
          else (Cache_model.Dirty, 1)
        end
        else (Cache_model.Word (Rng.int rng geom.Cache_model.line_words), 64)
      in
      let corruption = Fault_model.sample model rng ~bits in
      let seq = Rng.int rng (max 1 seq_hi) in
      Machine.Cache_fault
        { seq; geom; loc = { Cache_model.set; way; field }; corruption }
  | Istore_struct _ ->
      invalid_arg
        "Campaign.sample_fault: instruction-store faults mutate the program, \
         not the VM; use sample_injection"

(** A sampled corruption, generalized over how it is delivered: as a
    VM fault armed on the unmodified program, or as a persistent flip
    of one encoded instruction word — the instruction-store case, where
    the corrupted program is re-baked per trial. *)
type injection =
  | Vm_fault of Machine.fault
  | Istore_flip of {
      widx : int;  (** global word index into the encoded program *)
      corruption : Machine.corruption;
    }

(** {!sample_fault} generalized to every target.  Draw order for the
    instruction store: word index, then corruption over all 64 bits. *)
let sample_injection ?(model = Fault_model.Single_bit) (rng : Rng.t)
    (t : target) : injection =
  match t with
  | Istore_struct { enc } ->
      let widx = Rng.int rng (Icodec.total_words enc) in
      Istore_flip { widx; corruption = Fault_model.sample model rng ~bits:64 }
  | Internal _ | Input _ | Mem_over_time _ | Cache_struct _ ->
      Vm_fault (sample_fault ~model rng t)

(** Derive the internal-location target of a region instance. *)
let internal_target (prog : Prog.t) (trace : Trace.t)
    (inst : Region.instance) : target =
  Internal { sites = writing_sites prog trace ~lo:inst.lo ~hi:inst.hi }

(** Derive the input-location target of a region instance, using the
    fault-free DDDG for input classification. *)
let input_target (prog : Prog.t) (trace : Trace.t) (access : Access.t)
    (inst : Region.instance) : target =
  let g = Dddg.build trace access ~lo:inst.lo ~hi:inst.hi in
  let entry_seq = Trace.seq trace inst.lo in
  let sites =
    Dddg.input_mem_addrs g
    |> List.map (fun addr ->
           let bits =
             match Prog.type_of_addr prog addr with
             | Some Ty.I64 -> 32
             | Some Ty.F64 | None -> 64
           in
           { addr; bits })
    |> Array.of_list
  in
  Input { entry_seq; sites }

(** Whole-program target: every value-writing dynamic instruction. *)
let whole_program_target (prog : Prog.t) (trace : Trace.t) : target =
  Internal { sites = writing_sites prog trace ~lo:0 ~hi:(Trace.length trace) }

(** {!whole_program_target} of the fault-free run, collected while the
    run streams its events instead of from a stored trace: one run,
    returned with the target. *)
let streamed_whole_program_target ~(iter_mark : int) (prog : Prog.t) :
    Machine.result * target =
  let add, sites = site_collector prog in
  let clean = Machine.run_sink ~iter_mark ~sink:add prog in
  (clean, Internal { sites = sites () })

(** Fault sites restricted to the dynamic instructions of one function
    (all its activations).  Used to measure the resilience of a
    specific routine, e.g. the hardened [sprnvc] of Use Case 1. *)
let function_target (prog : Prog.t) (trace : Trace.t) (fname : string) :
    target =
  let fidx = Prog.func_index prog fname in
  let sites = ref [] in
  Trace.iter
    (fun (e : Trace.event) ->
      if e.fidx = fidx && Array.length e.writes > 0 then
        sites := { seq = e.seq; bits = event_bits prog e } :: !sites)
    trace;
  Internal { sites = Array.of_list !sites }

exception
  Unknown_symbol of {
    name : string;
    available : string list;  (** global symbol names, sorted *)
  }
(** Raised when a memory target names a symbol the program does not
    declare; carries the valid choices so callers (the CLI) can render
    an actionable message instead of a backtrace. *)

let () =
  Printexc.register_printer (function
    | Unknown_symbol { name; available } ->
        Some
          (Printf.sprintf "unknown symbol %S; available symbols: %s" name
             (String.concat ", " available))
    | _ -> None)

(** Global symbol names of [prog], sorted (for error messages). *)
let global_symbol_names (prog : Prog.t) : string list =
  prog.Prog.symbols
  |> List.filter_map (fun (s : Prog.symbol) ->
         if String.equal s.Prog.sym_scope "" then Some s.Prog.sym_name else None)
  |> List.sort_uniq String.compare

(** Soft errors in the memory of named variables while [fname] is
    executing: the Use Case 1 scenario — corruption landing in the
    global [v]/[iv] arrays during [sprnvc], which the hardened variant
    overwrites at copy-back. *)
let memory_during_function_target (prog : Prog.t) (trace : Trace.t)
    ~(fname : string) ~(vars : string list) : target =
  let fidx = Prog.func_index prog fname in
  let seqs = ref [] in
  Trace.iter
    (fun (e : Trace.event) -> if e.fidx = fidx then seqs := e.seq :: !seqs)
    trace;
  let sites =
    List.concat_map
      (fun name ->
        match Prog.find_symbol prog name with
        | None ->
            raise
              (Unknown_symbol { name; available = global_symbol_names prog })
        | Some s ->
            let size = List.fold_left ( * ) 1 s.Prog.sym_dims in
            let bits = match s.Prog.sym_ty with Ty.I64 -> 32 | Ty.F64 -> 64 in
            List.init (max 1 size) (fun k -> { addr = s.Prog.sym_addr + k; bits }))
      vars
  in
  Mem_over_time { seqs = Array.of_list !seqs; sites = Array.of_list sites }

(* --- microarchitectural structure targets ------------------------------ *)

(** Cache-structure target over the whole run: the corruption lands at
    a uniform dynamic seq in [0, clean_instructions). *)
let cache_target ?(geom = Cache_model.default_geometry) ~(meta : bool)
    (prog : Prog.t) ~(clean_instructions : int) : target =
  Cache_struct
    {
      geom;
      meta;
      seq_hi = max 1 clean_instructions;
      mem_words = prog.Prog.mem_size;
    }

(** Instruction-store target: every bit of the program's binary
    encoding. *)
let istore_target (prog : Prog.t) : target =
  Istore_struct { enc = Icodec.encode prog }

(** The whole-program target of a named structure.  [Structure.Reg] is
    the historical register-file surface — byte-for-byte the same
    target (and RNG stream) as {!whole_program_target}. *)
let structure_target ?geom (s : Structure.t) (prog : Prog.t) (trace : Trace.t)
    ~(clean_instructions : int) : target =
  match s with
  | Structure.Reg -> whole_program_target prog trace
  | Structure.Cache_tag -> cache_target ?geom ~meta:true prog ~clean_instructions
  | Structure.Cache_data ->
      cache_target ?geom ~meta:false prog ~clean_instructions
  | Structure.Istore -> istore_target prog

(* --- site levels and target translation -------------------------------- *)

(** The IR level a target's dynamic sequence numbers refer to.
    [Native] (the historical default): sites were sampled from the
    trace of the very program being injected.  [Reference]: sites were
    sampled at the unoptimized reference level and translated onto a
    transformed program — campaigns declare it so a journal recorded
    under one level can never silently resume under the other. *)
type site_level = Native | Reference

let site_level_to_string = function
  | Native -> "native"
  | Reference -> "reference"

exception
  Untranslatable_site of {
    seq : int;       (** first reference-level seq with no image *)
    total : int;     (** dynamic positions the target carries *)
    unmapped : int;  (** how many of them failed to translate *)
  }
(** Raised by {!translate_target} when the declared reference level
    cannot be honored: a sampled site's instruction has no image in the
    transformed program (e.g. dead code the optimizer deleted).  The
    campaign refuses rather than silently re-sampling. *)

let () =
  Printexc.register_printer (function
    | Untranslatable_site { seq; total; unmapped } ->
        Some
          (Printf.sprintf
             "Campaign.Untranslatable_site: %d of %d reference-level fault \
              site(s) have no image in the transformed program (first: seq \
              %d); run without site translation, or restrict the pipeline to \
              translation-total passes"
             unmapped total seq)
    | _ -> None)

(** Rewrite every dynamic sequence number of a target through
    [map_seq] (reference seq -> transformed seq).  Memory addresses are
    left alone: the transformations that use this keep the memory
    layout intact.  @raise Untranslatable_site if any position fails. *)
let translate_target ~(map_seq : int -> int option) (t : target) : target =
  let total = ref 0 in
  let failures = ref [] in
  let tr seq =
    incr total;
    match map_seq seq with
    | Some s -> s
    | None ->
        failures := seq :: !failures;
        -1
  in
  let t' =
    match t with
    | Internal { sites } ->
        Internal
          { sites = Array.map (fun s -> { s with seq = tr s.seq }) sites }
    | Input { entry_seq; sites } -> Input { entry_seq = tr entry_seq; sites }
    | Mem_over_time { seqs; sites } ->
        Mem_over_time { seqs = Array.map tr seqs; sites }
    | Cache_struct _ | Istore_struct _ ->
        (* structure targets are sampled from the program being injected
           (a seq range / its own encoding) — there is no reference
           level to translate from *)
        invalid_arg
          "Campaign.translate_target: microarchitectural structure targets \
           are native-level only"
  in
  match List.rev !failures with
  | [] -> t'
  | seq :: _ ->
      raise
        (Untranslatable_site
           { seq; total = !total; unmapped = List.length !failures })

(* --- campaigns -------------------------------------------------------- *)

type config = {
  seed : int;
  confidence : float;
  margin : float;
  max_trials : int option;  (** cap for quick runs; [None] = statistical n *)
  budget_factor : int;      (** hang budget = factor * fault-free count *)
  model : Fault_model.t;    (** corruption applied per fault *)
  recovery : recovery;      (** [No_recovery] keeps historical numbers *)
  site_level : site_level;
      (** which IR level the target's seqs were sampled at; [Native]
          keeps historical behavior and journal tags *)
  structure : Structure.t;
      (** which microarchitectural structure the campaign injects into.
          Informational for the journal tag (the target determines the
          actual sites — build it with {!structure_target} so the two
          agree); [Structure.Reg] keeps historical tags byte-identical *)
}

let default_config =
  {
    seed = 42;
    confidence = 0.95;
    margin = 0.03;
    max_trials = None;
    budget_factor = 20;
    model = Fault_model.Single_bit;
    recovery = No_recovery;
    site_level = Native;
    structure = Structure.Reg;
  }

(** Number of trials the configuration implies for a target. *)
let trials_for (cfg : config) (t : target) : int =
  let n =
    Stats.sample_size ~population:(target_population t)
      ~confidence:cfg.confidence ~margin:cfg.margin
  in
  match cfg.max_trials with Some m -> min m n | None -> n

(* --- resilient execution (ft_runtime) ---------------------------------- *)

(** Execution knobs of a campaign, orthogonal to the statistical design
    in {!config}: parallelism, checkpointing, retry policy, and early
    stopping.  All defaults reproduce the historical sequential
    in-memory behavior. *)
type exec = {
  jobs : int;  (** worker domains; results are identical for any value *)
  journal : string option;
      (** append-only on-disk trial log (csexp, fsync'd per batch) *)
  resume : bool;  (** skip trials already in the journal *)
  early_stop : bool;
      (** stop at a batch boundary once the Wilson interval on the
          success rate is within the configured margin *)
  batch : int;  (** journal/early-stop granularity (fixed boundaries) *)
  on_progress : (Executor.progress -> unit) option;
  metrics : Obs.t option;  (** executor phase/counter registry *)
  backend : Backend.t;
      (** execution engine for the trials; counts are identical for
          either value (the compiled backend is bit-identical to the
          interpreter and is excluded from the journal tag), only the
          wall-clock changes *)
}

let default_exec =
  {
    jobs = 1;
    journal = None;
    resume = false;
    early_stop = false;
    batch = Executor.default_config.Executor.batch;
    on_progress = None;
    metrics = None;
    backend = Backend.default;
  }

(** Honest campaign result: the counts plus how much of the plan
    actually ran and why. *)
type run_report = {
  counts : counts;
  planned : int;
  stopped_early : bool;
  resumed : int;  (** trials loaded from the journal, not re-run *)
  wall_s : float;
}

let encode_outcome = function
  | Success -> "S"
  | Failed -> "F"
  | Crashed -> "C"
  | Recovered -> "R"

let decode_outcome = function
  | "S" -> Some Success
  | "F" -> Some Failed
  | "C" -> Some Crashed
  | "R" -> Some Recovered
  | _ -> None

(** Minimum completed trials before early stopping may trigger: a
    Wilson interval over a handful of trials is formally narrow only
    when the rate is extreme, and stopping there would be dishonest. *)
let early_stop_min_trials = 50

(** The journal identity of a campaign.  The historical tag stays
    byte-identical under the default model/policy, so pre-existing
    journals keep resuming; any other configuration gets its own tag
    and cannot silently resume a journal recorded under different
    semantics.  Shared with the campaign server so a server-mode
    journal and a [--jobs 1] journal of the same campaign are
    interchangeable. *)
let campaign_tag (cfg : config) ~(population : int) ~(trials : int) : string =
  let base =
    Printf.sprintf "campaign:v1:seed=%d:population=%d:trials=%d" cfg.seed
      population trials
  in
  let base =
    match (cfg.model, cfg.recovery) with
    | Fault_model.Single_bit, No_recovery -> base
    | m, r ->
        Printf.sprintf "%s:model=%s:recover=%s" base (Fault_model.to_string m)
          (recovery_to_string r)
  in
  let base =
    match cfg.structure with
    | Structure.Reg -> base
    | s -> Printf.sprintf "%s:structure=%s" base (Structure.to_string s)
  in
  match cfg.site_level with
  | Native -> base
  | Reference ->
      Printf.sprintf "%s:sites=%s" base (site_level_to_string cfg.site_level)

(** The deterministic per-trial kernel: trial [i] derives its own RNG
    stream from [(cfg.seed, i)], samples one fault from [t], and runs
    one classified execution.  Extracted from {!run_report} so every
    engine that schedules trials — the in-process executor, the
    campaign server's forked workers — runs {e this exact function},
    which is what makes counts a pure function of the configuration
    regardless of which process computed which index. *)
let trial_fun ?(backend = Backend.default) (prog : Prog.t)
    ~(verify : Machine.result -> bool) ~(clean_instructions : int)
    ?(cfg = default_config) (t : target) : int -> outcome_class =
  let budget = cfg.budget_factor * max 1 clean_instructions in
  (* resolve the runner here, not per trial: under the compiled backend
     this compiles (or fetches) the plan in the submitting domain, so
     worker domains and forked server workers share one plan instead of
     racing on the cache *)
  let run = Backend.runner backend prog in
  fun i ->
    let rng = Rng.derive ~seed:cfg.seed ~index:i in
    let injection = sample_injection ~model:cfg.model rng t in
    match injection with
    | Vm_fault fault ->
        run_one_with run ~budget ~recovery:cfg.recovery ~verify fault
    | Istore_flip { widx; corruption } ->
        (* re-bake the mutated program and run it fault-free: under the
           compiled backend the mutant re-keys the content-addressed
           plan cache; the corrupted word decodes to a different legal
           instruction or the structured Illegal trap *)
        let enc =
          match t with Istore_struct { enc } -> enc | _ -> assert false
        in
        let fidx, pc = Icodec.locate enc widx in
        let word = Machine.corrupt corruption (Icodec.word enc ~fidx ~pc) in
        let mutated = Icodec.mutate prog enc ~fidx ~pc ~word in
        classify_run
          (Backend.runner backend mutated)
          ~budget ~recovery:cfg.recovery ~verify None

let counts_of_outcomes (outcomes : outcome_class Executor.outcome array) :
    counts =
  Array.fold_left
    (fun acc -> function
      | Executor.Done o -> add_outcome acc o
      | Executor.Infra_error _ -> { acc with infra = acc.infra + 1 })
    zero_counts outcomes

(** The executor spec of a campaign against one target: the journal
    tag, the per-trial kernel under [exec]'s backend, the
    outcome codec and, when [exec.early_stop] is set, the
    Wilson-interval stop predicate.  Every engine that schedules
    campaign trials builds its spec here, which is what keeps served
    counts byte-identical to [--jobs 1]. *)
let executor_spec (prog : Prog.t) ~(verify : Machine.result -> bool)
    ~(clean_instructions : int) ?(cfg = default_config)
    ?(exec = default_exec) (t : target) : outcome_class Executor.spec =
  let population = target_population t in
  let trials = if population = 0 then 0 else trials_for cfg t in
  let should_stop =
    if not exec.early_stop then None
    else
      Some
        (fun (outcomes : outcome_class Executor.outcome array) n ->
          let c = counts_of_outcomes outcomes in
          n >= early_stop_min_trials
          && c.trials >= early_stop_min_trials
          &&
          let lo, hi =
            Stats.wilson_interval ~successes:c.success ~trials:c.trials
              ~confidence:cfg.confidence
          in
          (hi -. lo) /. 2.0 <= cfg.margin)
  in
  {
    Executor.tag = campaign_tag cfg ~population ~trials;
    total = trials;
    run_trial =
      trial_fun ~backend:exec.backend prog ~verify ~clean_instructions ~cfg t;
    encode = encode_outcome;
    decode = decode_outcome;
    should_stop;
  }

(** Run a campaign against one target.  [clean_instructions] is the
    fault-free dynamic instruction count (for the hang budget).

    Every trial [i] samples its fault from [Rng.derive ~seed ~index:i],
    so the outcome sequence is a pure function of the configuration:
    [exec.jobs], scheduling, and kill-then-resume cannot change the
    counts. *)
let run_report (prog : Prog.t) ~(verify : Machine.result -> bool)
    ~(clean_instructions : int) ?(cfg = default_config)
    ?(exec = default_exec) (t : target) : run_report =
  let spec = executor_spec prog ~verify ~clean_instructions ~cfg ~exec t in
  let ecfg =
    {
      Executor.default_config with
      jobs = exec.jobs;
      batch = exec.batch;
      journal = exec.journal;
      resume = exec.resume;
      on_progress = exec.on_progress;
      metrics = exec.metrics;
    }
  in
  let r = Executor.run ~cfg:ecfg spec in
  {
    counts = counts_of_outcomes r.Executor.outcomes;
    planned = r.Executor.planned;
    stopped_early = r.Executor.stopped_early;
    resumed = r.Executor.resumed;
    wall_s = r.Executor.wall_s;
  }

let run (prog : Prog.t) ~(verify : Machine.result -> bool)
    ~(clean_instructions : int) ?(cfg = default_config)
    ?(exec = default_exec) (t : target) : counts =
  (run_report prog ~verify ~clean_instructions ~cfg ~exec t).counts

(* --- campaign submission / streaming (the wire API) --------------------- *)

(** A submittable whole-program campaign: everything a remote campaign
    service needs to reconstruct the exact statistical design — the app
    spelling ([CG], [CG@all], [IS@opt:fold+dce]…), the seed, the trial
    cap, the fault model, and the recovery policy.  Deliberately {e not}
    the program itself: the server resolves and bakes the app on its
    side (and caches the result content-addressed), so a submission is
    a few hundred bytes. *)
type spec = {
  sp_app : string;
  sp_seed : int;
  sp_trials : int option;  (** [max_trials]; [None] = full design *)
  sp_model : Fault_model.t;
  sp_recovery : recovery;
  sp_structure : Structure.t;
}

let default_spec =
  {
    sp_app = "IS";
    sp_seed = default_config.seed;
    sp_trials = Some 500;
    sp_model = Fault_model.Single_bit;
    sp_recovery = No_recovery;
    sp_structure = Structure.Reg;
  }

(** The statistical design a submission stands for. *)
let config_of_spec (s : spec) : config =
  {
    default_config with
    seed = s.sp_seed;
    max_trials = s.sp_trials;
    model = s.sp_model;
    recovery = s.sp_recovery;
    structure = s.sp_structure;
  }

(* The structure atom is appended only when non-default, so default
   submissions keep their historical byte encoding; the decoder accepts
   both widths. *)
let spec_to_csexp (s : spec) : Csexp.t =
  Csexp.(
    List
      ([
         Atom "campaign-spec";
         Atom s.sp_app;
         Atom (string_of_int s.sp_seed);
         Atom
           (match s.sp_trials with Some n -> string_of_int n | None -> "full");
         Atom (Fault_model.to_string s.sp_model);
         Atom (recovery_to_string s.sp_recovery);
       ]
      @
      match s.sp_structure with
      | Structure.Reg -> []
      | st -> [ Atom (Structure.to_string st) ]))

let spec_of_csexp (c : Csexp.t) : (spec, string) result =
  match c with
  | Csexp.List
      (Csexp.Atom "campaign-spec"
      :: Csexp.Atom app
      :: Csexp.Atom seed
      :: Csexp.Atom trials
      :: Csexp.Atom model
      :: Csexp.Atom recovery
      :: rest)
    when rest = []
         || match rest with [ Csexp.Atom _ ] -> true | _ -> false -> (
      let structure =
        match rest with
        | [ Csexp.Atom s ] -> Structure.of_string s
        | _ -> Ok Structure.Reg
      in
      match
        ( int_of_string_opt seed,
          (if String.equal trials "full" then Some None
           else Option.map Option.some (int_of_string_opt trials)),
          Fault_model.of_string model,
          recovery_of_string recovery,
          structure )
      with
      | Some sp_seed, Some sp_trials, Ok sp_model, Ok sp_recovery,
        Ok sp_structure ->
          Ok
            {
              sp_app = app;
              sp_seed;
              sp_trials;
              sp_model;
              sp_recovery;
              sp_structure;
            }
      | None, _, _, _, _ -> Error (Printf.sprintf "bad campaign seed %S" seed)
      | _, None, _, _, _ -> Error (Printf.sprintf "bad trial cap %S" trials)
      | _, _, Error e, _, _ -> Error e
      | _, _, _, Error e, _ -> Error e
      | _, _, _, _, Error e -> Error e)
  | _ -> Error "not a campaign-spec record"

(** Counts on the wire, field-ordered and versioned: the streaming
    progress/result records of the campaign service, and the byte
    representation the determinism gate compares — "byte-identical to
    [--jobs 1]" means these encodings are equal as strings. *)
let counts_to_csexp (c : counts) : Csexp.t =
  Csexp.(
    List
      [
        Atom "counts";
        Atom (string_of_int c.success);
        Atom (string_of_int c.failed);
        Atom (string_of_int c.crashed);
        Atom (string_of_int c.recovered);
        Atom (string_of_int c.trials);
        Atom (string_of_int c.infra);
      ])

let counts_of_csexp (c : Csexp.t) : (counts, string) result =
  match c with
  | Csexp.List
      [
        Csexp.Atom "counts";
        Csexp.Atom s;
        Csexp.Atom f;
        Csexp.Atom cr;
        Csexp.Atom r;
        Csexp.Atom t;
        Csexp.Atom i;
      ] -> (
      match
        ( int_of_string_opt s,
          int_of_string_opt f,
          int_of_string_opt cr,
          int_of_string_opt r,
          int_of_string_opt t,
          int_of_string_opt i )
      with
      | Some success, Some failed, Some crashed, Some recovered, Some trials,
        Some infra ->
          Ok { success; failed; crashed; recovered; trials; infra }
      | _ -> Error "counts record has a non-integer field")
  | _ -> Error "not a counts record"
