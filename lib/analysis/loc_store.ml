(** Dense per-location slots.

    Memory words are slots of one growable array indexed by address;
    registers are slots of one growable array per activation, indexed by
    register number.  Addresses, activation ids and register numbers are
    small non-negative integers in every trace the VM produces, so a
    lookup is a few bounds checks and an array read, with no hashing and
    no allocation.

    Only addresses and activation ids below 2^20 and register numbers
    below 2^10 get a dense slot (the VM's memory and its per-function
    register counts sit far below these); any other location, possible
    only in hand-made or damaged trace files, lives in a hash table.  One
    [set] thus grows the memory or activation array to at most 2^20
    words and one activation's register array to at most 2^10, so
    whatever a trace file holds, a store's dense part is bounded by two
    8 MB arrays plus 8 KB per activation whose registers it sets. *)

type 'a t = {
  default : 'a;
  mutable mem : 'a array;  (** [mem.(addr)] *)
  mutable acts : 'a array array;  (** [acts.(act).(reg)] *)
  spill : 'a Loc.Tbl.t;
}

let mem_limit = 1 lsl 20
let act_limit = 1 lsl 20
let reg_limit = 1 lsl 10

let create (default : 'a) : 'a t =
  { default; mem = [||]; acts = [||]; spill = Loc.Tbl.create 1 }

(* [a] grown to hold index [i] < [limit], new slots filled with [d] *)
let grow (a : 'b array) (i : int) ~limit (d : 'b) : 'b array =
  let n = Array.length a in
  let b = Array.make (max (i + 1) (min limit (max 16 (2 * n)))) d in
  Array.blit a 0 b 0 n;
  b

let dense_mem a = a >= 0 && a < mem_limit
let dense_reg act r = act >= 0 && act < act_limit && r >= 0 && r < reg_limit

let spilled (t : 'a t) loc =
  Option.value (Loc.Tbl.find_opt t.spill loc) ~default:t.default

let get (t : 'a t) (loc : Loc.t) : 'a =
  match loc with
  | Loc.Mem a ->
      if not (dense_mem a) then spilled t loc
      else if a < Array.length t.mem then Array.unsafe_get t.mem a
      else t.default
  | Loc.Reg (act, r) ->
      if not (dense_reg act r) then spilled t loc
      else if act < Array.length t.acts then
        let regs = Array.unsafe_get t.acts act in
        if r < Array.length regs then Array.unsafe_get regs r else t.default
      else t.default

let set (t : 'a t) (loc : Loc.t) (v : 'a) : unit =
  match loc with
  | Loc.Mem a ->
      if not (dense_mem a) then Loc.Tbl.replace t.spill loc v
      else begin
        if a >= Array.length t.mem then
          t.mem <- grow t.mem a ~limit:mem_limit t.default;
        Array.unsafe_set t.mem a v
      end
  | Loc.Reg (act, r) ->
      if not (dense_reg act r) then Loc.Tbl.replace t.spill loc v
      else begin
        if act >= Array.length t.acts then
          t.acts <- grow t.acts act ~limit:act_limit [||];
        let regs = Array.unsafe_get t.acts act in
        if r < Array.length regs then Array.unsafe_set regs r v
        else begin
          let regs = grow regs r ~limit:reg_limit t.default in
          Array.unsafe_set regs r v;
          Array.unsafe_set t.acts act regs
        end
      end

(* slots holding something other than the default (physically) *)
let fold (f : Loc.t -> 'a -> 'b -> 'b) (t : 'a t) (init : 'b) : 'b =
  let acc = ref init in
  Array.iteri
    (fun a v -> if v != t.default then acc := f (Loc.Mem a) v !acc)
    t.mem;
  Array.iteri
    (fun act regs ->
      Array.iteri
        (fun r v -> if v != t.default then acc := f (Loc.Reg (act, r)) v !acc)
        regs)
    t.acts;
  Loc.Tbl.fold (fun loc v acc -> if v != t.default then f loc v acc else acc)
    t.spill !acc
