(** Dynamic instruction traces.

    One event per executed instruction, carrying everything the
    analyses need: the locations read and written with their values,
    the source line, and the *effective* code region — the static
    region of the instruction, or, for instructions executed inside a
    callee, the region of the call site (regions extend through calls,
    as in the paper's region model).  Events are also stamped with the
    region-instance number and the main-loop iteration so a trace can
    be split without re-deriving loop structure.

    A stored trace keeps its events in columns: six int words per event
    (see [t] below) plus one int key and one unboxed int64 value per
    access.  The VM hands each event to its sink as a reused mutable
    {!cursor}; {!push} copies a cursor into the columns, and {!get}
    builds an {!event} record on demand for cold paths. *)

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

type ba = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* defined before [event], so an unannotated [e.seq] still means an
   event *)
type cursor = {
  mutable seq : int;
  mutable fidx : int;
  mutable pc : int;
  mutable act : int;
  mutable line : int;
  mutable region : int;
  mutable instance : int;
  mutable iter : int;
  mutable op : opclass;
  mutable nreads : int;
  mutable nwrites : int;
  mutable rkeys : int array;
  mutable rvals : ba;
  mutable wkeys : int array;
  mutable wvals : ba;
}

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

(* --- op codes ------------------------------------------------------------ *)

let bins =
  Op.
    [| Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lshr; Ashr; Fadd; Fsub;
       Fmul; Fdiv; Eq; Ne; Lt; Le; Gt; Ge; Feq; Fne; Flt; Fle; Fgt; Fge;
       Imin; Imax; Fmin; Fmax |]

let uns =
  Op.
    [| Neg; Not; Fneg; Fabs; Fsqrt; Fsin; Fcos; Trunc32; FloatOfInt;
       IntOfFloat; F32round |]

(* every opclass without a payload to intern, shared by all traces:
   decoding one of these allocates nothing *)
let fixed : opclass array =
  Array.concat
    [
      [| OConst; OLoad; OStore; OJmp; OBr false; OBr true; OCall; ORet |];
      Array.map (fun b -> OBin b) bins;
      Array.map (fun u -> OUn u) uns;
    ]

let nfixed = Array.length fixed

let bin_code (b : Op.bin) : int =
  Op.(
  match b with
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4 | And -> 5 | Or -> 6
  | Xor -> 7 | Shl -> 8 | Lshr -> 9 | Ashr -> 10 | Fadd -> 11 | Fsub -> 12
  | Fmul -> 13 | Fdiv -> 14 | Eq -> 15 | Ne -> 16 | Lt -> 17 | Le -> 18
  | Gt -> 19 | Ge -> 20 | Feq -> 21 | Fne -> 22 | Flt -> 23 | Fle -> 24
  | Fgt -> 25 | Fge -> 26 | Imin -> 27 | Imax -> 28 | Fmin -> 29 | Fmax -> 30)

let un_code (u : Op.un) : int =
  Op.(
  match u with
  | Neg -> 0 | Not -> 1 | Fneg -> 2 | Fabs -> 3 | Fsqrt -> 4 | Fsin -> 5
  | Fcos -> 6 | Trunc32 -> 7 | FloatOfInt -> 8 | IntOfFloat -> 9
  | F32round -> 10)

(* [fixed]'s index of [op], or -1 for an intrinsic or a mark *)
let fixed_code = function
  | OConst -> 0
  | OLoad -> 1
  | OStore -> 2
  | OJmp -> 3
  | OBr false -> 4
  | OBr true -> 5
  | OCall -> 6
  | ORet -> 7
  | OBin b -> 8 + bin_code b
  | OUn u -> 8 + Array.length bins + un_code u
  | OIntr _ | OMark _ -> -1

(* --- columns ------------------------------------------------------------- *)

(* Event [i]'s stamps:
   - [seq.(i)];
   - [code.(i)] = fidx lsl 44 lor pc lsl 22 lor line;
   - [acts.(i)];
   - [stamp.(i)] = (region + 1) lsl 50 lor (instance + 1) lsl 25
     lor (iter + 1);
   - [ops.(i)] = op code lor nreads lsl 32, where codes below [nfixed]
     index [fixed] and the others index the trace's [extras];
   - its accesses are [keys]/[vals] at [off.(i) .. off.(i + 1) - 1],
     the [nreads] reads first, then the writes.
   An event whose stamps do not fit these fields (only in a hand-made
   or damaged trace) stores -1 in [code] and [stamp], and its stamps in
   [wide]. *)
type t = {
  mutable len : int;
  mutable seqs : int array;
  mutable code : int array;
  mutable acts : int array;
  mutable stamp : int array;
  mutable ops : int array;
  mutable off : int array;  (** [len + 1] entries *)
  mutable keys : int array;
  mutable vals : ba;
  extra_codes : (opclass, int) Hashtbl.t;
  mutable extras : opclass array;
  wide : (int, event) Hashtbl.t;
  numbering : slots option Atomic.t;
      (** the latest {!slots}, current while it covers every access *)
}

(* The trace's locations numbered densely in first-touch order: the
   slot of each access by position ([col]) and the slot of each key.
   Computed on the first {!slots} call and kept until a push adds an
   access; published through an [Atomic] so domains sharing a clean
   trace see it whole. *)
and slots = {
  col : slot_col;
  nslots : int;
  ids : int Loc_store.t;  (** key -> slot, -1 for keys never touched *)
}

and slot_col = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba n : ba = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n

let create () =
  {
    len = 0;
    seqs = [||];
    code = [||];
    acts = [||];
    stamp = [||];
    ops = [||];
    off = [| 0 |];
    keys = [||];
    vals = ba 0;
    extra_codes = Hashtbl.create 8;
    extras = [||];
    wide = Hashtbl.create 1;
    numbering = Atomic.make None;
  }

let length (t : t) = t.len

let resize (a : int array) n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (min n (Array.length a));
  b

let resize_ba (a : ba) n : ba =
  let b = ba n in
  let m = min n (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 m) (Bigarray.Array1.sub b 0 m);
  b

(* room for one more event with [n] accesses *)
let reserve (t : t) n =
  let cap = Array.length t.seqs in
  if t.len >= cap then begin
    let c = max 1024 (2 * cap) in
    t.seqs <- resize t.seqs c;
    t.code <- resize t.code c;
    t.acts <- resize t.acts c;
    t.stamp <- resize t.stamp c;
    t.ops <- resize t.ops c;
    t.off <- resize t.off (c + 1)
  end;
  let nacc = t.off.(t.len) in
  let acap = Array.length t.keys in
  if nacc + n > acap then begin
    let c = max (nacc + n) (max 2048 (2 * acap)) in
    t.keys <- resize t.keys c;
    t.vals <- resize_ba t.vals c
  end

let trim (t : t) =
  let n = t.len and nacc = t.off.(t.len) in
  if Array.length t.seqs > n then begin
    t.seqs <- resize t.seqs n;
    t.code <- resize t.code n;
    t.acts <- resize t.acts n;
    t.stamp <- resize t.stamp n;
    t.ops <- resize t.ops n;
    t.off <- resize t.off (n + 1)
  end;
  if Array.length t.keys > nacc then begin
    t.keys <- resize t.keys nacc;
    t.vals <- resize_ba t.vals nacc
  end

let footprint_words (t : t) =
  let col =
    match Atomic.get t.numbering with
    | Some s -> (Bigarray.Array1.dim s.col + 1) / 2
    | None -> 0
  in
  Obj.reachable_words (Obj.repr t) + Bigarray.Array1.dim t.vals + col

let opcode (t : t) (op : opclass) =
  let c = fixed_code op in
  if c >= 0 then c
  else
    match Hashtbl.find_opt t.extra_codes op with
    | Some c -> c
    | None ->
        let i = Hashtbl.length t.extra_codes in
        if i = Array.length t.extras then begin
          let a = Array.make (max 4 (2 * i)) op in
          Array.blit t.extras 0 a 0 i;
          t.extras <- a
        end;
        t.extras.(i) <- op;
        Hashtbl.replace t.extra_codes op (nfixed + i);
        nfixed + i

let fits v bits = v >= 0 && v < 1 lsl bits

(* the stamps of event [i] = [t.len], packed when they fit; [false] when
   they do not, and the caller stores the event in [wide] *)
let push_stamps (t : t) ~seq ~fidx ~pc ~act ~line ~region ~instance ~iter ~op
    ~nreads ~nacc =
  let i = t.len in
  t.seqs.(i) <- seq;
  t.acts.(i) <- act;
  t.ops.(i) <- opcode t op lor (nreads lsl 32);
  t.off.(i + 1) <- t.off.(i) + nacc;
  t.len <- i + 1;
  let packed =
    fits fidx 18 && fits pc 22 && fits line 22
    && fits (region + 1) 12 && fits (instance + 1) 25 && fits (iter + 1) 25
  in
  t.code.(i) <- (if packed then (fidx lsl 44) lor (pc lsl 22) lor line else -1);
  t.stamp.(i) <-
    (if packed then ((region + 1) lsl 50) lor ((instance + 1) lsl 25) lor (iter + 1)
     else -1);
  packed

let cursor () : cursor =
  {
    seq = 0; fidx = 0; pc = 0; act = 0; line = 0; region = -1; instance = -1;
    iter = -1; op = OJmp; nreads = 0; nwrites = 0;
    rkeys = Array.make 8 0; rvals = ba 8; wkeys = Array.make 8 0; wvals = ba 8;
  }

let reserve_cursor (c : cursor) ~reads ~writes =
  if reads > Array.length c.rkeys then begin
    c.rkeys <- resize c.rkeys reads;
    c.rvals <- resize_ba c.rvals reads
  end;
  if writes > Array.length c.wkeys then begin
    c.wkeys <- resize c.wkeys writes;
    c.wvals <- resize_ba c.wvals writes
  end

let accesses keys (vals : ba) n =
  Array.init n (fun k ->
      (Loc.of_key keys.(k), Bigarray.Array1.unsafe_get vals k))

let event_of_cursor (c : cursor) : event =
  {
    seq = c.seq; fidx = c.fidx; pc = c.pc; act = c.act; line = c.line;
    region = c.region; instance = c.instance; iter = c.iter; op = c.op;
    reads = accesses c.rkeys c.rvals c.nreads;
    writes = accesses c.wkeys c.wvals c.nwrites;
  }

let push (t : t) (c : cursor) =
  let nr = c.nreads and nw = c.nwrites in
  reserve t (nr + nw);
  let a = t.off.(t.len) in
  for k = 0 to nr - 1 do
    t.keys.(a + k) <- c.rkeys.(k);
    Bigarray.Array1.unsafe_set t.vals (a + k) (Bigarray.Array1.get c.rvals k)
  done;
  let a = a + nr in
  for k = 0 to nw - 1 do
    t.keys.(a + k) <- c.wkeys.(k);
    Bigarray.Array1.unsafe_set t.vals (a + k) (Bigarray.Array1.get c.wvals k)
  done;
  if
    not
      (push_stamps t ~seq:c.seq ~fidx:c.fidx ~pc:c.pc ~act:c.act ~line:c.line
         ~region:c.region ~instance:c.instance ~iter:c.iter ~op:c.op ~nreads:nr
         ~nacc:(nr + nw))
  then Hashtbl.replace t.wide (t.len - 1) (event_of_cursor c)

let push_event (t : t) (e : event) =
  let nr = Array.length e.reads and nw = Array.length e.writes in
  reserve t (nr + nw);
  let a = t.off.(t.len) in
  let put j (loc, v) =
    t.keys.(j) <- Loc.key loc;
    Bigarray.Array1.unsafe_set t.vals j v
  in
  Array.iteri (fun k acc -> put (a + k) acc) e.reads;
  Array.iteri (fun k acc -> put (a + nr + k) acc) e.writes;
  if
    not
      (push_stamps t ~seq:e.seq ~fidx:e.fidx ~pc:e.pc ~act:e.act ~line:e.line
         ~region:e.region ~instance:e.instance ~iter:e.iter ~op:e.op ~nreads:nr
         ~nacc:(nr + nw))
  then Hashtbl.replace t.wide (t.len - 1) e

(* --- field accessors ----------------------------------------------------- *)

let check (t : t) i name = if i < 0 || i >= t.len then invalid_arg name
let wide (t : t) i = Hashtbl.find t.wide i

let seq (t : t) i =
  check t i "Trace.seq";
  t.seqs.(i)

let act (t : t) i =
  check t i "Trace.act";
  t.acts.(i)

let code (t : t) i =
  check t i "Trace.code";
  t.code.(i)

let stamp (t : t) i =
  check t i "Trace.stamp";
  t.stamp.(i)

(* the fields of a packed [code] or [stamp] *)
let code_fidx c = c lsr 44
let code_pc c = (c lsr 22) land 0x3FFFFF
let code_line c = c land 0x3FFFFF
let stamp_region s = (s lsr 50) - 1
let stamp_instance s = ((s lsr 25) land 0x1FFFFFF) - 1
let stamp_iter s = (s land 0x1FFFFFF) - 1

let fidx (t : t) i =
  let c = code t i in
  if c >= 0 then code_fidx c else (wide t i).fidx

let pc (t : t) i =
  let c = code t i in
  if c >= 0 then code_pc c else (wide t i).pc

let line (t : t) i =
  let c = code t i in
  if c >= 0 then code_line c else (wide t i).line

let region (t : t) i =
  let s = stamp t i in
  if s >= 0 then stamp_region s else (wide t i).region

let instance (t : t) i =
  let s = stamp t i in
  if s >= 0 then stamp_instance s else (wide t i).instance

let iter_at (t : t) i =
  let s = stamp t i in
  if s >= 0 then stamp_iter s else (wide t i).iter

let op (t : t) i =
  check t i "Trace.op";
  let c = t.ops.(i) land 0xFFFFFFFF in
  if c < nfixed then Array.unsafe_get fixed c else t.extras.(c - nfixed)

let nreads (t : t) i =
  check t i "Trace.nreads";
  t.ops.(i) lsr 32

let nwrites (t : t) i = t.off.(i + 1) - t.off.(i) - nreads t i
let reads_at (t : t) i = t.off.(i)
let writes_at (t : t) i = t.off.(i) + nreads t i
let naccesses (t : t) = t.off.(t.len)
let keys (t : t) = t.keys
let values (t : t) = t.vals

(* --- the slot numbering -------------------------------------------------- *)

let number (t : t) : slots =
  let n = naccesses t in
  let ids = Loc_store.create (-1) in
  let col = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  let ns = ref 0 in
  for p = 0 to n - 1 do
    let key = Array.unsafe_get t.keys p in
    let s = Loc_store.get_key ids key in
    let s =
      if s >= 0 then s
      else begin
        let s = !ns in
        ns := s + 1;
        Loc_store.set_key ids key s;
        s
      end
    in
    Bigarray.Array1.unsafe_set col p (Int32.of_int s)
  done;
  { col; nslots = !ns; ids }

let slots (t : t) : slots =
  match Atomic.get t.numbering with
  | Some s when Bigarray.Array1.dim s.col = naccesses t -> s
  | Some _ | None ->
      let s = number t in
      Atomic.set t.numbering (Some s);
      s

let slot_column (s : slots) = s.col
let nslots (s : slots) = s.nslots
let slot_of_key (s : slots) key = Loc_store.get_key s.ids key

let spans (t : t) i (span : int array) =
  i >= 0 && i < t.len
  &&
  let a = Array.unsafe_get t.off i and nr = Array.unsafe_get t.ops i lsr 32 in
  span.(0) <- a;
  span.(1) <- nr;
  span.(2) <- Array.unsafe_get t.off (i + 1) - a - nr;
  true

let aligned_spans (t : t) i (c : cursor) (span : int array) =
  spans t i span
  && (let code = Array.unsafe_get t.code i in
      if code >= 0 && fits c.fidx 18 && fits c.pc 22 then
        code lsr 22 = (c.fidx lsl 22) lor c.pc
      else fidx t i = c.fidx && pc t i = c.pc)

let get (t : t) i : event =
  check t i "Trace.get";
  let c = t.code.(i) and s = t.stamp.(i) in
  (* a wide event was stored whole *)
  if c < 0 then wide t i
  else
    let acc a n =
      Array.init n (fun k ->
          (Loc.of_key t.keys.(a + k), Bigarray.Array1.unsafe_get t.vals (a + k)))
    in
    let r = t.off.(i) and nr = t.ops.(i) lsr 32 in
    {
      seq = t.seqs.(i); fidx = code_fidx c; pc = code_pc c; act = t.acts.(i);
      line = code_line c; region = stamp_region s; instance = stamp_instance s;
      iter = stamp_iter s; op = op t i;
      reads = acc r nr; writes = acc (r + nr) (t.off.(i + 1) - r - nr);
    }

let load (t : t) i (c : cursor) =
  let nr = nreads t i and nw = nwrites t i in
  reserve_cursor c ~reads:nr ~writes:nw;
  c.seq <- seq t i;
  c.fidx <- fidx t i;
  c.pc <- pc t i;
  c.act <- act t i;
  c.line <- line t i;
  c.region <- region t i;
  c.instance <- instance t i;
  c.iter <- iter_at t i;
  c.op <- op t i;
  c.nreads <- nr;
  c.nwrites <- nw;
  let r = reads_at t i in
  for k = 0 to nr - 1 do
    c.rkeys.(k) <- t.keys.(r + k);
    Bigarray.Array1.set c.rvals k (Bigarray.Array1.unsafe_get t.vals (r + k))
  done;
  let w = r + nr in
  for k = 0 to nw - 1 do
    c.wkeys.(k) <- t.keys.(w + k);
    Bigarray.Array1.set c.wvals k (Bigarray.Array1.unsafe_get t.vals (w + k))
  done

let replay (t : t) (f : cursor -> unit) =
  let c = cursor () in
  for i = 0 to t.len - 1 do
    load t i c;
    f c
  done

let iter f (t : t) =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let iteri f (t : t) =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let fold f acc (t : t) =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let to_seq (t : t) : event Seq.t =
  let rec go i () =
    if i >= t.len then Seq.Nil else Seq.Cons (get t i, go (i + 1))
  in
  go 0

(** Events [lo, hi) as a fresh array (used for region-instance slices). *)
let slice (t : t) lo hi =
  if lo < 0 || hi > t.len || lo > hi then invalid_arg "Trace.slice";
  Array.init (hi - lo) (fun k -> get t (lo + k))

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
