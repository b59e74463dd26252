(* Facade over the hardening passes; see the mli. *)

let transform ?opts (passes : Pass.t list) (p : Prog.t) : Prog.t =
  let p, _, _ = Pass.run_pipeline ?opts passes p in
  p

let ranking_after (p : Prog.t) (reports : Pass.report list) :
    Vuln.region_score list =
  Vuln.rank ~extra_protective:(Pass.protective_sites reports) p

let app_variant ?opts ?(passes = Passes.all) (base : App.t) : App.t =
  {
    base with
    App.name = base.App.name ^ "@" ^ Pass.spec_names Passes.all passes;
    description =
      Printf.sprintf "%s, auto-hardened (%s)" base.App.description
        (String.concat ", "
           (List.map (fun (p : Pass.t) -> p.Pass.name) passes));
    transform = Some (transform ?opts passes);
  }
