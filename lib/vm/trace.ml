(** Dynamic instruction traces.

    One event per executed instruction, carrying everything the
    analyses need: the locations read and written with their values,
    the source line, and the *effective* code region — the static
    region of the instruction, or, for instructions executed inside a
    callee, the region of the call site (regions extend through calls,
    as in the paper's region model).  Events are also stamped with the
    region-instance number and the main-loop iteration so a trace can
    be split without re-deriving loop structure. *)

type opclass =
  | OConst
  | OBin of Op.bin
  | OUn of Op.un
  | OLoad
  | OStore
  | OJmp
  | OBr of bool  (** taken value of the condition *)
  | OCall
  | ORet
  | OIntr of string
  | OMark of int

type event = {
  seq : int;  (** dynamic instruction index, from 0 *)
  fidx : int;
  pc : int;
  act : int;  (** activation id of the executing frame *)
  line : int;
  region : int;  (** effective region id, or -1 *)
  instance : int;  (** region instance number (per region), or -1 *)
  iter : int;  (** main-loop iteration, or -1 before the first marker *)
  op : opclass;
  reads : (Loc.t * Value.t) array;
  writes : (Loc.t * Value.t) array;
}

type t = { mutable events : event array; mutable len : int }

let create () = { events = [||]; len = 0 }

let push (t : t) (e : event) =
  let cap = Array.length t.events in
  if t.len >= cap then begin
    let nbuf = Array.make (max 1024 (cap * 2)) e in
    Array.blit t.events 0 nbuf 0 t.len;
    t.events <- nbuf
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let length (t : t) = t.len
let get (t : t) i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  t.events.(i)

let iter f (t : t) =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

let iteri f (t : t) =
  for i = 0 to t.len - 1 do
    f i t.events.(i)
  done

let fold f acc (t : t) =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.events.(i)
  done;
  !acc

let to_seq (t : t) : event Seq.t =
  let rec go i () =
    if i >= t.len then Seq.Nil else Seq.Cons (t.events.(i), go (i + 1))
  in
  go 0

(** Events [lo, hi) as a fresh array (used for region-instance slices). *)
let slice (t : t) lo hi =
  if lo < 0 || hi > t.len || lo > hi then invalid_arg "Trace.slice";
  Array.sub t.events lo (hi - lo)

let control_signature (e : event) = (e.fidx, e.pc)
let same_control (a : event) (b : event) = a.fidx = b.fidx && a.pc = b.pc

let pp_opclass ppf = function
  | OConst -> Fmt.string ppf "const"
  | OBin op -> Op.pp_bin ppf op
  | OUn op -> Op.pp_un ppf op
  | OLoad -> Fmt.string ppf "load"
  | OStore -> Fmt.string ppf "store"
  | OJmp -> Fmt.string ppf "jmp"
  | OBr b -> Fmt.pf ppf "br(%b)" b
  | OCall -> Fmt.string ppf "call"
  | ORet -> Fmt.string ppf "ret"
  | OIntr s -> Fmt.pf ppf "intr:%s" s
  | OMark m -> Fmt.pf ppf "mark:%d" m

let pp_event ppf (e : event) =
  Fmt.pf ppf "#%d f%d:%d %a reads[%a] writes[%a] line=%d region=%d inst=%d it=%d"
    e.seq e.fidx e.pc pp_opclass e.op
    Fmt.(array ~sep:sp (pair ~sep:(any "=") Loc.pp (fun ppf v -> Value.pp_bits ppf v)))
    e.reads
    Fmt.(array ~sep:sp (pair ~sep:(any "=") Loc.pp (fun ppf v -> Value.pp_bits ppf v)))
    e.writes e.line e.region e.instance e.iter
