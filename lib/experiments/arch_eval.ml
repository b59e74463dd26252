(* Cross-structure fault campaigns; see the mli. *)

type cell = {
  ac_structure : Structure.t;
  ac_population : int;
  ac_counts : Campaign.counts;
}

type report = {
  ar_app : string;
  ar_seed : int;
  ar_trials : int;
  ar_geometry : Cache_model.geometry;
  ar_clean_instructions : int;
  ar_cells : cell list;
}

let evaluate ?(seed = Campaign.default_config.Campaign.seed) ?(trials = 150)
    ?(structures = Structure.all) ?(geom = Cache_model.default_geometry)
    ?(backend = Backend.default) ?(jobs = 1) (app : App.t) : report =
  Cache_model.validate_geometry geom;
  let clean, trace = App.trace app in
  (match clean.Machine.outcome with
  | Machine.Finished -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Arch_eval: %s fault-free run did not finish"
           app.App.name));
  let prog = App.program app in
  let verify = App.verify app in
  let clean_instructions = clean.Machine.instructions in
  let cell structure =
    let target =
      Campaign.structure_target ~geom structure prog trace ~clean_instructions
    in
    let cfg =
      {
        Campaign.default_config with
        seed;
        max_trials = Some trials;
        structure;
      }
    in
    let exec = { Campaign.default_exec with jobs; backend } in
    let counts = Campaign.run prog ~verify ~clean_instructions ~cfg ~exec target in
    {
      ac_structure = structure;
      ac_population = Campaign.target_population target;
      ac_counts = counts;
    }
  in
  {
    ar_app = app.App.name;
    ar_seed = seed;
    ar_trials = trials;
    ar_geometry = geom;
    ar_clean_instructions = clean_instructions;
    ar_cells = List.map cell structures;
  }

let find_cell (r : report) (s : Structure.t) : cell option =
  List.find_opt (fun c -> c.ac_structure = s) r.ar_cells

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "@[<v>%s: cross-structure campaigns (seed %d, %d trials/structure, \
     cache %s, %d clean instructions)@,"
    r.ar_app r.ar_seed r.ar_trials
    (Cache_model.geometry_to_string r.ar_geometry)
    r.ar_clean_instructions;
  Fmt.pf ppf "%-11s %12s %6s %6s %6s %6s %6s  %8s %8s %8s@," "structure"
    "population" "trials" "benign" "SDC" "crash" "recov" "SDCrate" "crashrt"
    "recovrt";
  List.iter
    (fun c ->
      let k = c.ac_counts in
      Fmt.pf ppf "%-11s %12d %6d %6d %6d %6d %6d  %8.4f %8.4f %8.4f@,"
        (Structure.to_string c.ac_structure)
        c.ac_population k.Campaign.trials k.Campaign.success
        k.Campaign.failed k.Campaign.crashed k.Campaign.recovered
        (Campaign.sdc_rate k) (Campaign.crash_rate k)
        (Campaign.recovered_rate k))
    r.ar_cells;
  Fmt.pf ppf "@]"

let to_csv (r : report) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "app,structure,geometry,population,trials,success,failed,crashed,recovered,sdc_rate,crash_rate,recovered_rate\n";
  List.iter
    (fun c ->
      let k = c.ac_counts in
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%s,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f\n"
           r.ar_app
           (Structure.to_string c.ac_structure)
           (Cache_model.geometry_to_string r.ar_geometry)
           c.ac_population k.Campaign.trials k.Campaign.success
           k.Campaign.failed k.Campaign.crashed k.Campaign.recovered
           (Campaign.sdc_rate k) (Campaign.crash_rate k)
           (Campaign.recovered_rate k)))
    r.ar_cells;
  Buffer.contents b
