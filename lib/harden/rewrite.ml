(* The one function-body rewriting engine: per-instruction replacement
   (including deletion) plus straight-line insertion before or after an
   anchor, with one old->new pc map (-1 for deleted instructions). *)

type place = Before of (int -> bool) | After

type insertion = {
  at : int;              (* anchor pc in the input function *)
  place : place;         (* Before carries the branch-entry predicate *)
  code : Instr.t list;   (* straight-line instructions only *)
}

let before ?(via = fun _ -> true) at code = { at; place = Before via; code }

let after at code = { at; place = After; code }

let apply ?nregs ?(insertions = []) ?(replace = fun _ -> None)
    (f : Prog.func) : Prog.func * int array =
  let n = Array.length f.Prog.code in
  if n = 0 then (f, [||])
  else begin
    let repl =
      Array.init n (fun pc ->
          match replace pc with None -> [ f.Prog.code.(pc) ] | Some l -> l)
    in
    (* Before code keeps its entry predicate; After code is appended to
       the anchor's replacement, so it runs on the anchor's fall-through
       edge and branches to the next pc skip nothing *)
    let ins_at : ((int -> bool) * Instr.t list) list array = Array.make n [] in
    List.iter
      (fun i ->
        if i.at < 0 || i.at >= n then
          invalid_arg
            (Printf.sprintf "Rewrite.apply: %s: anchor %d out of range"
               f.Prog.fname i.at);
        List.iter
          (fun ins ->
            if Cfg.is_terminator ins then
              invalid_arg
                (Printf.sprintf
                   "Rewrite.apply: %s: control flow in inserted code at %d"
                   f.Prog.fname i.at))
          i.code;
        match i.place with
        | Before via -> ins_at.(i.at) <- ins_at.(i.at) @ [ (via, i.code) ]
        | After ->
            if Cfg.is_terminator f.Prog.code.(i.at) then
              invalid_arg
                (Printf.sprintf
                   "Rewrite.apply: %s: After-insertion on terminator at %d"
                   f.Prog.fname i.at);
            repl.(i.at) <- repl.(i.at) @ i.code)
      insertions;
    (* lay out the new index space: Before code at an anchor comes
       first, then the anchor's replacement (or the anchor itself) with
       any After code *)
    let map = Array.make n (-1) in
    let entries : ((int -> bool) * int) list array = Array.make n [] in
    let pos = ref 0 in
    for pc = 0 to n - 1 do
      List.iter
        (fun (via, code) ->
          entries.(pc) <- entries.(pc) @ [ (via, !pos) ];
          pos := !pos + List.length code)
        ins_at.(pc);
      match repl.(pc) with
      | [] -> map.(pc) <- -1
      | l ->
          map.(pc) <- !pos;
          pos := !pos + List.length l
    done;
    let total = !pos in
    if total = 0 then invalid_arg "Rewrite.apply: rewrite deleted everything";
    (* a branch to a deleted pc falls forward to the next survivor; a
       branch into a fully deleted tail is parked on the last
       instruction (only unreachable code can do that) *)
    let rec newstart l =
      if l >= n then total - 1
      else if map.(l) >= 0 then map.(l)
      else newstart (l + 1)
    in
    let target ~src l =
      if l < 0 || l >= n then newstart l
      else
        let rec through = function
          | [] -> newstart l
          | (via, p) :: rest -> if via src then p else through rest
        in
        through entries.(l)
    in
    let retarget src (ins : Instr.t) : Instr.t =
      match ins with
      | Instr.Jmp l -> Instr.Jmp (target ~src l)
      | Instr.Bnz (c, l1, l2) -> Instr.Bnz (c, target ~src l1, target ~src l2)
      | Instr.Const _ | Instr.Bin _ | Instr.Un _ | Instr.Load _
      | Instr.Store _ | Instr.Call _ | Instr.Ret _ | Instr.Intr _
      | Instr.Mark _ ->
          ins
    in
    let code = Array.make total (Instr.Mark 0) in
    let lines = Array.make total 0 in
    let regions = Array.make total (-1) in
    let emit pc ins =
      code.(!pos) <- ins;
      lines.(!pos) <- f.Prog.lines.(pc);
      regions.(!pos) <- f.Prog.regions.(pc);
      incr pos
    in
    pos := 0;
    for pc = 0 to n - 1 do
      List.iter (fun (_, code) -> List.iter (emit pc) code) ins_at.(pc);
      List.iter (fun ins -> emit pc (retarget pc ins)) repl.(pc)
    done;
    ( {
        f with
        Prog.code;
        lines;
        regions;
        nregs = Option.value ~default:f.Prog.nregs nregs;
      },
      map )
  end
