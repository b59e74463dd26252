(* The pass manager shared by the optimizer and the hardening passes;
   see the mli. *)

type opts = { top_k : int }

let default_opts = { top_k = 3 }

type site_change = {
  ch_func : string;
  ch_pc : int;
  ch_line : int;
  ch_region : int;
  ch_note : string;
}

type report = {
  pass_name : string;
  sites_considered : int;
  sites_changed : int;
  instrs_added : int;
  instrs_removed : int;
  regs_added : int;
  changes : site_change list;
  protective : (string * int) list;
}

type t = {
  name : string;
  short : string;
  doc : string;
  run : opts -> Prog.t -> Prog.t * report * Sitemap.t;
}

exception Verify_failed of { passes : string list; diags : Verify.diag list }

exception Unknown_pass of {
  name : string;
  suggestions : string list;
  known : string list;
}

(* --- the per-function harness ------------------------------------------ *)

type work = {
  w_func : Prog.func;
  w_map : int array;
  w_changes : site_change list;
  w_changed : int;
  w_considered : int;
  w_prot : int list;
}

let keep (f : Prog.func) =
  {
    w_func = f;
    w_map = Array.init (Array.length f.Prog.code) Fun.id;
    w_changes = [];
    w_changed = 0;
    w_considered = 0;
    w_prot = [];
  }

let rewritten ?(prot = []) (f : Prog.func) map changes considered =
  {
    w_func = f;
    w_map = map;
    w_changes = changes;
    w_changed = List.length changes;
    w_considered = considered;
    w_prot = prot;
  }

let change (f : Prog.func) pc note : site_change =
  {
    ch_func = f.Prog.fname;
    ch_pc = pc;
    ch_line = f.Prog.lines.(pc);
    ch_region = f.Prog.regions.(pc);
    ch_note = note;
  }

let func_pass ~name ~short ~doc
    (prepare : opts -> Prog.t -> Prog.func -> work) : t =
  let run opts (p : Prog.t) =
    let worker = prepare opts p in
    let ws = Array.to_list (Array.map (fun f -> (f, worker f)) p.Prog.funcs) in
    let sum g = List.fold_left (fun a (f, w) -> a + g f w) 0 ws in
    let deleted w =
      Array.fold_left (fun a x -> if x < 0 then a + 1 else a) 0 w.w_map
    in
    let rep =
      {
        pass_name = name;
        sites_considered = sum (fun _ w -> w.w_considered);
        sites_changed = sum (fun _ w -> w.w_changed);
        instrs_added =
          sum (fun (f : Prog.func) w ->
              Array.length w.w_func.Prog.code
              - (Array.length f.Prog.code - deleted w));
        instrs_removed = sum (fun _ w -> deleted w);
        regs_added =
          sum (fun (f : Prog.func) w -> w.w_func.Prog.nregs - f.Prog.nregs);
        changes = List.concat_map (fun (_, w) -> w.w_changes) ws;
        protective =
          List.concat_map
            (fun ((f : Prog.func), w) ->
              List.map (fun pc -> (f.Prog.fname, pc)) w.w_prot)
            ws;
      }
    in
    let funcs = Array.of_list (List.map (fun (_, w) -> w.w_func) ws) in
    ( { p with Prog.funcs },
      rep,
      Sitemap.of_list
        (List.map (fun ((f : Prog.func), w) -> (f.Prog.fname, w.w_map)) ws) )
  in
  { name; short; doc; run }

(* --- the pipeline runner ----------------------------------------------- *)

(* one report per pass, in first-run order, summed across rounds *)
let merge_reports (rs : report list) : report list =
  let order = ref [] in
  let tbl : (string, report) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.pass_name with
      | None ->
          order := r.pass_name :: !order;
          Hashtbl.add tbl r.pass_name r
      | Some prev ->
          Hashtbl.replace tbl r.pass_name
            {
              r with
              sites_considered = prev.sites_considered + r.sites_considered;
              sites_changed = prev.sites_changed + r.sites_changed;
              instrs_added = prev.instrs_added + r.instrs_added;
              instrs_removed = prev.instrs_removed + r.instrs_removed;
              regs_added = prev.regs_added + r.regs_added;
              changes = prev.changes @ r.changes;
              protective = prev.protective @ r.protective;
            })
    rs;
  List.rev_map (Hashtbl.find tbl) !order

let run_pipeline ?(opts = default_opts) ?(rounds = 1) (passes : t list)
    (p : Prog.t) : Prog.t * report list * Sitemap.t =
  let step (prog, reps, map, changed) pass =
    let prog', rep, m = pass.run opts prog in
    Prog.validate prog';
    (* keep earlier passes' guard sites valid in the new numbering; a
       deleted guard protects nothing *)
    let remap r =
      {
        r with
        protective =
          List.filter_map
            (fun (fname, pc) ->
              let pc = Sitemap.map_pc m ~fname ~pc in
              if pc < 0 then None else Some (fname, pc))
            r.protective;
      }
    in
    ( prog',
      rep :: List.map remap reps,
      Sitemap.compose map m,
      changed || rep.sites_changed > 0 )
  in
  let rec go prog reps map rounds =
    let prog, reps, map, changed =
      List.fold_left step (prog, reps, map, false) passes
    in
    if changed && rounds > 1 then go prog reps map (rounds - 1)
    else (prog, reps, map)
  in
  let prog, reps, map = go p [] (Sitemap.identity p) (max 1 rounds) in
  (match Verify.errors (Verify.verify prog) with
  | [] -> ()
  | diags ->
      raise
        (Verify_failed
           { passes = List.map (fun ps -> ps.name) passes; diags }));
  (prog, merge_reports (List.rev reps), map)

let protective_sites (reports : report list) : (string * int) list =
  List.concat_map (fun r -> r.protective) reports

(* --- pass specs -------------------------------------------------------- *)

let find_exn (registry : t list) (name : string) : t =
  let key = String.lowercase_ascii (String.trim name) in
  match
    List.find_opt
      (fun p -> String.equal key p.name || String.equal key p.short)
      registry
  with
  | Some p -> p
  | None ->
      let candidates =
        List.concat_map (fun p -> [ p.name; p.short ]) registry
      in
      raise
        (Unknown_pass
           {
             name;
             suggestions = Registry.suggest ~candidates name;
             known = List.map (fun p -> p.name) registry;
           })

let parse_spec (registry : t list) (spec : string) : (t list, string) result =
  let spec = String.trim spec in
  if String.equal (String.lowercase_ascii spec) "all" then Ok registry
  else
    match
      String.split_on_char ',' spec
      |> List.concat_map (String.split_on_char '+')
      |> List.map String.trim
      |> List.filter (fun s -> not (String.equal s ""))
    with
    | [] ->
        Error
          (Printf.sprintf "empty pass spec; known passes: %s"
             (String.concat ", " (List.map (fun p -> p.name) registry)))
    | parts -> (
        match List.map (find_exn registry) parts with
        | ps ->
            (* canonical order, independent of spec order *)
            Ok
              (List.filter
                 (fun p -> List.exists (fun q -> String.equal q.name p.name) ps)
                 registry)
        | exception (Unknown_pass _ as e) -> Error (Printexc.to_string e))

let spec_names (registry : t list) (passes : t list) : string =
  if
    List.length passes = List.length registry
    && List.for_all2 (fun a b -> String.equal a.name b.name) passes registry
  then "all"
  else String.concat "+" (List.map (fun p -> p.short) passes)

let pp_report ppf (r : report) =
  Fmt.pf ppf "%-18s %4d/%-4d sites changed  +%d instrs  +%d regs" r.pass_name
    r.sites_changed r.sites_considered r.instrs_added r.regs_added;
  if r.instrs_removed > 0 then Fmt.pf ppf "  -%d instrs" r.instrs_removed;
  List.iteri
    (fun i (c : site_change) ->
      if i < 4 then
        Fmt.pf ppf "@,    %s pc %d line %d: %s" c.ch_func c.ch_pc c.ch_line
          c.ch_note)
    r.changes;
  if List.length r.changes > 4 then
    Fmt.pf ppf "@,    ... %d more" (List.length r.changes - 4)

let () =
  Printexc.register_printer (function
    | Verify_failed { passes; diags } ->
        Some
          (Printf.sprintf
             "Pass.Verify_failed: pipeline [%s] produced %d error \
              diagnostic(s); first: %s"
             (String.concat "; " passes)
             (List.length diags)
             (match diags with
             | d :: _ -> Fmt.str "%a" Verify.pp_diag d
             | [] -> "?"))
    | Unknown_pass { name; suggestions; known } ->
        Some
          (Printf.sprintf "unknown pass %S%s; known passes: %s" name
             (match suggestions with
             | [] -> ""
             | l -> Printf.sprintf " (did you mean %s?)" (String.concat ", " l))
             (String.concat ", " known))
    | _ -> None)
