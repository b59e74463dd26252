(** Data locations.

    A location is anything a fault can corrupt and an analysis can track:
    a virtual register inside one function activation, or a word of the
    flat global memory.  Registers are qualified by an activation id so
    that re-entrant calls of the same function do not alias in the
    analyses (the tracer assigns a fresh activation id per call). *)

type t =
  | Reg of int * int  (** [Reg (activation, register_index)] *)
  | Mem of int        (** [Mem address] — word address in global memory *)

let equal a b =
  match (a, b) with
  | Reg (a1, r1), Reg (a2, r2) -> a1 = a2 && r1 = r2
  | Mem m1, Mem m2 -> m1 = m2
  | Reg _, Mem _ | Mem _, Reg _ -> false

let compare a b =
  match (a, b) with
  | Reg (a1, r1), Reg (a2, r2) ->
      let c = Int.compare a1 a2 in
      if c <> 0 then c else Int.compare r1 r2
  | Mem m1, Mem m2 -> Int.compare m1 m2
  | Reg _, Mem _ -> -1
  | Mem _, Reg _ -> 1

let hash = function
  | Reg (a, r) -> (a * 8191) + r
  | Mem m -> m lxor 0x55555555

let is_mem = function Mem _ -> true | Reg _ -> false

(* --- int keys ------------------------------------------------------------

   A memory word's key is [addr lsl 1] and a register's is
   [((act lsl reg_bits) lor r) lsl 1 lor 1], for addresses below 2^61,
   activations below 2^40 and register numbers below 2^reg_bits: every
   location a VM run produces.  Any other location (possible only in a
   hand-made or damaged trace) is interned in one process-wide table and
   gets a negative key, so keys are total and [of_key (key l)] equals
   [l] everywhere. *)

let reg_bits = 20
let reg_mask = (1 lsl reg_bits) - 1
let mem_bound = 1 lsl 61
let act_bound = 1 lsl 40

let far_lock = Mutex.create ()
let far_keys : (t, int) Hashtbl.t = Hashtbl.create 16
let far_locs : t array ref = ref [||]

let far_key (loc : t) : int =
  Mutex.protect far_lock (fun () ->
      match Hashtbl.find_opt far_keys loc with
      | Some k -> k
      | None ->
          let i = Hashtbl.length far_keys in
          if i = Array.length !far_locs then begin
            let a = Array.make (max 16 (2 * i)) loc in
            Array.blit !far_locs 0 a 0 i;
            far_locs := a
          end;
          !far_locs.(i) <- loc;
          let k = -(i + 1) in
          Hashtbl.replace far_keys loc k;
          k)

let mem_key (a : int) : int =
  if a >= 0 && a < mem_bound then a lsl 1 else far_key (Mem a)

let reg_key (act : int) (r : int) : int =
  if act >= 0 && act < act_bound && r >= 0 && r <= reg_mask then
    (((act lsl reg_bits) lor r) lsl 1) lor 1
  else far_key (Reg (act, r))

let key = function Mem a -> mem_key a | Reg (act, r) -> reg_key act r

let of_key (k : int) : t =
  if k >= 0 then
    if k land 1 = 0 then Mem (k lsr 1)
    else Reg (k lsr (reg_bits + 1), (k lsr 1) land reg_mask)
  else Mutex.protect far_lock (fun () -> !far_locs.(-k - 1))

let key_is_mem (k : int) : bool =
  if k >= 0 then k land 1 = 0 else is_mem (of_key k)

let pp ppf = function
  | Reg (a, r) -> Fmt.pf ppf "r%d@%d" r a
  | Mem m -> Fmt.pf ppf "[%d]" m

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
