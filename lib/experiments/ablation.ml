(** Ablations of the framework's own design choices (documented in
    DESIGN.md), so that each substitution's effect on the results is
    measurable rather than asserted:

    {ol
    {- {b typed fault widths}: the paper's subjects store integers in
       32 bits; flipping a uniform 64-bit range instead inflates wild
       values and crashes;}
    {- {b heap slack}: C programs silently corrupt nearby heap memory
       under moderate index corruption; a tight address space converts
       those into traps;}
    {- {b liveness-aware ACL counting}: counting all corrupted
       locations (plain taint) instead of the alive ones overstates the
       error footprint — the paper's reason for tracking liveness.}} *)

type campaign_pair = {
  label : string;
  variant_a : string;
  counts_a : Campaign.counts;
  variant_b : string;
  counts_b : Campaign.counts;
}

(* strip the 32-bit annotations off a target *)
let untyped = function
  | Campaign.Internal { sites } ->
      Campaign.Internal
        { sites = Array.map (fun (s : Campaign.site) -> { s with bits = 64 }) sites }
  | Campaign.Input { entry_seq; sites } ->
      Campaign.Input
        {
          entry_seq;
          sites =
            Array.map
              (fun (s : Campaign.input_site) -> { s with Campaign.bits = 64 })
              sites;
        }
  | Campaign.Mem_over_time { seqs; sites } ->
      Campaign.Mem_over_time
        {
          seqs;
          sites =
            Array.map
              (fun (s : Campaign.input_site) -> { s with Campaign.bits = 64 })
              sites;
        }
  (* structural surfaces carry no per-site width annotations *)
  | (Campaign.Cache_struct _ | Campaign.Istore_struct _) as t -> t

(** Ablation 1: IS under typed vs uniform-64-bit flips. *)
let typed_bits ?(trials = 150) () : campaign_pair =
  let app = Is.app in
  let clean, trace = App.trace app in
  let prog = App.program app in
  let target = Campaign.whole_program_target prog trace in
  let cfg = { Campaign.default_config with max_trials = Some trials } in
  let run t =
    Campaign.run prog ~verify:(App.verify app)
      ~clean_instructions:clean.Machine.instructions ~cfg t
  in
  {
    label = "fault width model (IS, whole program)";
    variant_a = "typed (ints=32b)";
    counts_a = run target;
    variant_b = "uniform 64b";
    counts_b = run (untyped target);
  }

(** Ablation 2: IS with and without heap slack. *)
let heap_slack ?(trials = 150) () : campaign_pair =
  let ref_value = App.reference_value Is.app in
  let run_with slack =
    let prog = Compile.compile ~heap_slack:slack (Is.make ~ref_value:(Some ref_value)) in
    let clean, t = Machine.run_traced prog in
    let target = Campaign.whole_program_target prog t in
    Campaign.run prog
      ~verify:(fun r -> App.verified r.Machine.output)
      ~clean_instructions:clean.Machine.instructions
      ~cfg:{ Campaign.default_config with max_trials = Some trials }
      target
  in
  {
    label = "heap slack (IS, whole program)";
    variant_a = "64Ki words of slack";
    counts_a = run_with 65536;
    variant_b = "no slack";
    counts_b = run_with 0;
  }

type acl_vs_taint = {
  at_app : string;
  acl_peak : int;    (** alive corrupted locations, paper semantics *)
  taint_peak : int;  (** all corrupted locations, liveness-unaware *)
  acl_final : int;
  taint_final : int;
}

(** Ablation 3: peak of the ACL series vs the liveness-unaware
    corrupted-location count on the Figure 7 fault. *)
let acl_vs_taint ?(app = Lulesh.app) () : acl_vs_taint =
  let series = Experiments.fig7 app in
  let c = Experiments.context app in
  let fault = series.Experiments.as_fault in
  let budget = 10 * c.Experiments.clean.Machine.instructions in
  let replay = Experiments.faulty_replay app fault ~budget in
  (* liveness-unaware walk: just track the corrupted-set size *)
  let w = Align.create ~fault ~clean:c.Experiments.trace () in
  let peak = ref 0 in
  ignore
    (Align.drive w replay (fun _ ->
         let n = Align.corrupted_count w in
         if n > !peak then peak := n));
  {
    at_app = app.App.name;
    acl_peak = series.Experiments.as_result.Acl.peak;
    taint_peak = !peak;
    acl_final = series.Experiments.as_result.Acl.final;
    taint_final = Align.corrupted_count w;
  }
