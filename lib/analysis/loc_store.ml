(** Dense per-location slots, indexed by {!Loc.key}.

    Memory words are slots of one growable array indexed by address;
    registers are slots of one growable array per activation, indexed by
    register number.  Both are decoded from the key with a few shifts.
    Addresses, activation ids and register numbers are small
    non-negative integers in every trace the VM produces, so a lookup is
    a few bounds checks and an array read, with no hashing and no
    allocation.

    Only addresses and activation ids below 2^20 and register numbers
    below 2^10 get a dense slot (the VM's memory and its per-function
    register counts sit far below these); any other key, possible only
    in hand-made or damaged trace files, lives in a hash table.  One
    [set_key] thus grows the memory or activation array to at most 2^20
    words and one activation's register array to at most 2^10, so
    whatever a trace file holds, a store's dense part is bounded by two
    8 MB arrays plus 8 KB per activation whose registers it sets. *)

module Itbl = Hashtbl.Make (Int)

type 'a t = {
  default : 'a;
  mutable mem : 'a array;  (** [mem.(addr)] *)
  mutable acts : 'a array array;  (** [acts.(act).(reg)] *)
  spill : 'a Itbl.t;  (** by key *)
}

let mem_limit = 1 lsl 20
let act_limit = 1 lsl 20
let reg_limit = 1 lsl 10

let create (default : 'a) : 'a t =
  { default; mem = [||]; acts = [||]; spill = Itbl.create 1 }

(* [a] grown to hold index [i] < [limit], new slots filled with [d] *)
let grow (a : 'b array) (i : int) ~limit (d : 'b) : 'b array =
  let n = Array.length a in
  let b = Array.make (max (i + 1) (min limit (max 16 (2 * n)))) d in
  Array.blit a 0 b 0 n;
  b

(* the fields of a non-negative key (see [Loc.key]) *)
let key_addr k = k lsr 1
let key_act k = k lsr (Loc.reg_bits + 1)
let key_reg k = (k lsr 1) land ((1 lsl Loc.reg_bits) - 1)

let spilled (t : 'a t) k =
  match Itbl.find_opt t.spill k with Some v -> v | None -> t.default

let get_key (t : 'a t) (k : int) : 'a =
  if k < 0 then spilled t k
  else if k land 1 = 0 then begin
    let a = key_addr k in
    if a < Array.length t.mem then Array.unsafe_get t.mem a
    else if a < mem_limit then t.default
    else spilled t k
  end
  else begin
    let act = key_act k and r = key_reg k in
    if r >= reg_limit || act >= act_limit then spilled t k
    else if act < Array.length t.acts then
      let regs = Array.unsafe_get t.acts act in
      if r < Array.length regs then Array.unsafe_get regs r else t.default
    else t.default
  end

let set_key (t : 'a t) (k : int) (v : 'a) : unit =
  if k < 0 then Itbl.replace t.spill k v
  else if k land 1 = 0 then begin
    let a = key_addr k in
    if a >= mem_limit then Itbl.replace t.spill k v
    else begin
      if a >= Array.length t.mem then
        t.mem <- grow t.mem a ~limit:mem_limit t.default;
      Array.unsafe_set t.mem a v
    end
  end
  else begin
    let act = key_act k and r = key_reg k in
    if r >= reg_limit || act >= act_limit then Itbl.replace t.spill k v
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
  end

let get (t : 'a t) (loc : Loc.t) : 'a = get_key t (Loc.key loc)
let set (t : 'a t) (loc : Loc.t) (v : 'a) : unit = set_key t (Loc.key loc) v

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
  Itbl.fold
    (fun k v acc -> if v != t.default then f (Loc.of_key k) v acc else acc)
    t.spill !acc
