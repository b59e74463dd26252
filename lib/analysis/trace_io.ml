(** Trace serialization.

    The paper's tracer (LLVM-Tracer) writes one trace file per MPI
    process, and FlipTracker's implementation splits those files into
    per-code-region-instance pieces for parallel analysis
    (Section IV-A).  This module provides the same artifacts in two
    interchangeable encodings plus the streaming plumbing that lets a
    trace file be written and split without materializing a
    [Trace.t]:

    {ul
    {- a line-oriented {e text} format, kept for debugging and diffing;}
    {- a compact {e binary} format (varint + delta encoded, versioned
       header) that is several times smaller and faster to decode;}
    {- channel writers/readers for both, a [Seq.t] event reader that
       sniffs the format, and region-instance splitting that works
       directly on an event stream.}}

    Text format, one event per line, space-separated:

    {v seq fidx pc act line region instance iter op #reads r... #writes w... v}

    where each read/write is [loc:hexvalue] and a location is [rA.R]
    (register R of activation A) or [mADDR] (memory word).

    Binary format (version 1): the 4-byte magic {!magic} ("FTB\x01",
    last byte = version), then events back to back until end of file.
    Every integer is an LEB128 varint, signed ones zigzag-coded.  An
    event is: a stamp-flags byte (bit i set = stamp i differs from its
    prediction and an explicit zigzag delta follows; stamp order seq,
    fidx, pc, act, line, region, instance, iter; predictions: seq and
    pc advance by one, the rest repeat), an opmeta byte (low nibble:
    opclass tag; bits 4-5 / 6-7: read / write counts, 3 = varint
    escape), the explicit stamp deltas in bit order, the opclass
    payload (op index byte, mark zigzag, or length-prefixed intrinsic
    name), then the read and write sets.  Each access is a tag byte —
    bit 0: register (0) / memory (1); bits 1-2: value kind — followed
    by the location (register: bits 4-7 hold the index, 15 = varint
    escape, and bit 3 flags a zigzag activation delta against the
    event's activation; memory: bits 3-7 hold the low address bits,
    varint of the rest follows) and the value XORed against the last
    value seen at that location in the stream (encoder and decoder
    keep identical per-location shadow tables): kind 2 means the XOR
    is zero and has no payload, kinds 0/1 are the raw / byte-reversed
    varint (whichever is shorter), kind 3 is 8 raw little-endian bytes
    when no varint wins.  Straight-line execution pays two header
    bytes per event; unchanged re-read values cost one byte. *)

exception
  Parse_error of {
    line : string;  (** the offending line, or a short binary context *)
    token : string;  (** the offending token, or "" *)
    msg : string;
  }

let parse_error ~line ~token msg = raise (Parse_error { line; token; msg })

let () =
  Printexc.register_printer (function
    | Parse_error { line; token; msg } ->
        Some
          (Printf.sprintf "Trace_io.Parse_error: %s (token %S, line %S)" msg
             token
             (if String.length line > 120 then String.sub line 0 120 ^ "..."
              else line))
    | _ -> None)

type format = Text | Binary

(* --- opclass tables ---------------------------------------------------- *)

(* declaration order of Op.bin / Op.un: these arrays define both the
   text names' search space and the binary opcode indices, so their
   order is part of binary format version 1 *)
let bin_ops =
  [|
    Op.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Lshr; Ashr; Fadd; Fsub;
    Fmul; Fdiv; Eq; Ne; Lt; Le; Gt; Ge; Feq; Fne; Flt; Fle; Fgt; Fge; Imin;
    Imax; Fmin; Fmax;
  |]

let un_ops =
  [|
    Op.Neg; Not; Fneg; Fabs; Fsqrt; Fsin; Fcos; Trunc32; FloatOfInt;
    IntOfFloat; F32round;
  |]

let bin_index : (Op.bin, int) Hashtbl.t =
  let h = Hashtbl.create 64 in
  Array.iteri (fun i o -> Hashtbl.replace h o i) bin_ops;
  h

let un_index : (Op.un, int) Hashtbl.t =
  let h = Hashtbl.create 32 in
  Array.iteri (fun i o -> Hashtbl.replace h o i) un_ops;
  h

(* --- text format ------------------------------------------------------- *)

let pp_loc_compact buf (loc : Loc.t) =
  match loc with
  | Loc.Reg (a, r) -> Buffer.add_string buf (Printf.sprintf "r%d.%d" a r)
  | Loc.Mem m -> Buffer.add_string buf (Printf.sprintf "m%d" m)

let parse_loc ?(line = "") (s : string) : Loc.t =
  let fail msg = parse_error ~line ~token:s msg in
  let int_field sub =
    match int_of_string_opt sub with
    | Some v -> v
    | None -> fail (Printf.sprintf "location field %S is not an integer" sub)
  in
  if String.length s < 2 then fail "location shorter than two characters"
  else if Char.equal s.[0] 'm' then
    Loc.Mem (int_field (String.sub s 1 (String.length s - 1)))
  else if Char.equal s.[0] 'r' then
    match String.index_opt s '.' with
    | Some dot ->
        Loc.Reg
          ( int_field (String.sub s 1 (dot - 1)),
            int_field (String.sub s (dot + 1) (String.length s - dot - 1)) )
    | None -> fail "register location has no '.' separator"
  else fail "location must start with 'r' or 'm'"

(* Percent-encoding for intrinsic names (which carry arbitrary format
   strings).  Every byte outside a conservative safe set is escaped as
   %XX, and decoding is strict: a '%' not followed by two hex digits is
   a parse error.  Encoder and decoder cover exactly the same set, so
   any byte string round-trips. *)
let safe_byte c =
  (* printable ASCII minus space (the token separator) and '%' (the
     escape character); everything else — controls, tab, CR, LF, high
     bytes — is escaped *)
  c > ' ' && c < '\x7f' && not (Char.equal c '%')

let percent_encode (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      if safe_byte c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let percent_decode ?(line = "") (s : string) : string =
  let n = String.length s in
  let buf = Buffer.create n in
  let hex i =
    match s.[i] with
    | '0' .. '9' -> Char.code s.[i] - Char.code '0'
    | 'a' .. 'f' -> Char.code s.[i] - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code s.[i] - Char.code 'A' + 10
    | _ ->
        parse_error ~line ~token:s
          (Printf.sprintf "invalid percent escape at offset %d" (i - 1))
  in
  let rec go i =
    if i >= n then ()
    else if Char.equal s.[i] '%' then
      if i + 2 >= n then
        parse_error ~line ~token:s "truncated percent escape"
      else begin
        Buffer.add_char buf (Char.chr ((hex (i + 1) * 16) + hex (i + 2)));
        go (i + 3)
      end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let opclass_code : Trace.opclass -> string = function
  | Trace.OConst -> "c"
  | Trace.OBin op -> "b:" ^ Op.bin_to_string op
  | Trace.OUn op -> "u:" ^ Op.un_to_string op
  | Trace.OLoad -> "l"
  | Trace.OStore -> "s"
  | Trace.OJmp -> "j"
  | Trace.OBr true -> "t"
  | Trace.OBr false -> "f"
  | Trace.OCall -> "C"
  | Trace.ORet -> "R"
  | Trace.OIntr s -> "i:" ^ percent_encode s
  | Trace.OMark m -> "M:" ^ string_of_int m

let parse_opclass ?(line = "") (s : string) : Trace.opclass =
  let fail msg = parse_error ~line ~token:s msg in
  if String.length s = 0 then fail "empty opclass token"
  else
    let tail () =
      if String.length s < 2 then fail "opclass is missing its ':' payload"
      else String.sub s 2 (String.length s - 2)
    in
    match s.[0] with
    | 'c' -> Trace.OConst
    | 'l' -> Trace.OLoad
    | 's' -> Trace.OStore
    | 'j' -> Trace.OJmp
    | 't' -> Trace.OBr true
    | 'f' -> Trace.OBr false
    | 'C' -> Trace.OCall
    | 'R' -> Trace.ORet
    | 'M' -> (
        match int_of_string_opt (tail ()) with
        | Some m -> Trace.OMark m
        | None -> fail "mark id is not an integer")
    | 'i' -> Trace.OIntr (percent_decode ~line (tail ()))
    | 'b' -> (
        let name = tail () in
        match
          Array.find_opt
            (fun o -> String.equal (Op.bin_to_string o) name)
            bin_ops
        with
        | Some o -> Trace.OBin o
        | None -> fail (Printf.sprintf "unknown binary op %S" name))
    | 'u' -> (
        let name = tail () in
        match
          Array.find_opt
            (fun o -> String.equal (Op.un_to_string o) name)
            un_ops
        with
        | Some o -> Trace.OUn o
        | None -> fail (Printf.sprintf "unknown unary op %S" name))
    | _ -> fail "unknown opclass tag"

let write_event (buf : Buffer.t) (e : Trace.event) : unit =
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d %d %d %d %d %d %s %d" e.seq e.fidx e.pc e.act
       e.line e.region e.instance e.iter (opclass_code e.op)
       (Array.length e.reads));
  Array.iter
    (fun (loc, v) ->
      Buffer.add_char buf ' ';
      pp_loc_compact buf loc;
      Buffer.add_string buf (Printf.sprintf ":%Lx" v))
    e.reads;
  Buffer.add_string buf (Printf.sprintf " %d" (Array.length e.writes));
  Array.iter
    (fun (loc, v) ->
      Buffer.add_char buf ' ';
      pp_loc_compact buf loc;
      Buffer.add_string buf (Printf.sprintf ":%Lx" v))
    e.writes;
  Buffer.add_char buf '\n'

let parse_event (line : string) : Trace.event =
  let fail token msg = parse_error ~line ~token msg in
  let toks = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
  let int_tok what tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail tok (Printf.sprintf "%s is not an integer" what)
  in
  match toks with
  | seq :: fidx :: pc :: act :: ln :: region :: instance :: iter :: op
    :: nreads :: rest ->
      let nreads = int_tok "read count" nreads in
      let parse_access tok =
        match String.index_opt tok ':' with
        | Some i -> (
            let hex = String.sub tok (i + 1) (String.length tok - i - 1) in
            match Int64.of_string_opt ("0x" ^ hex) with
            | Some v -> (parse_loc ~line (String.sub tok 0 i), v)
            | None -> fail tok "access value is not hexadecimal")
        | None -> fail tok "access has no ':' separator"
      in
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> fail "" "truncated access list"
        | t :: rest -> take (n - 1) (parse_access t :: acc) rest
      in
      let reads, rest = take nreads [] rest in
      let writes =
        match rest with
        | nw :: rest ->
            let nw = int_tok "write count" nw in
            let writes, rest = take nw [] rest in
            if rest <> [] then
              fail (List.hd rest) "trailing tokens after the write set";
            writes
        | [] -> fail "" "missing write count"
      in
      {
        Trace.seq = int_tok "seq" seq;
        fidx = int_tok "fidx" fidx;
        pc = int_tok "pc" pc;
        act = int_tok "act" act;
        line = int_tok "line" ln;
        region = int_tok "region" region;
        instance = int_tok "instance" instance;
        iter = int_tok "iter" iter;
        op = parse_opclass ~line op;
        reads = Array.of_list reads;
        writes = Array.of_list writes;
      }
  | _ -> fail "" "fewer than ten header fields"

(* --- binary format: primitives ----------------------------------------- *)

let magic = "FTB\x01"

let add_varint64 (buf : Buffer.t) (v : int64) : unit =
  let v = ref v in
  let fin = ref false in
  while not !fin do
    let b = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if Int64.equal !v 0L then begin
      Buffer.add_char buf (Char.chr b);
      fin := true
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let varint64_len (v : int64) : int =
  let v = ref (Int64.shift_right_logical v 7) in
  let n = ref 1 in
  while not (Int64.equal !v 0L) do
    v := Int64.shift_right_logical !v 7;
    incr n
  done;
  !n

let add_varint buf (v : int) = add_varint64 buf (Int64.of_int v)

let zigzag64 (v : int64) : int64 =
  Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag64 (v : int64) : int64 =
  Int64.logxor (Int64.shift_right_logical v 1)
    (Int64.neg (Int64.logand v 1L))

let add_zigzag buf (v : int) = add_varint64 buf (zigzag64 (Int64.of_int v))

let bswap64 (v : int64) : int64 =
  let byte i = Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL in
  let r = ref 0L in
  for i = 0 to 7 do
    r := Int64.logor (Int64.shift_left !r 8) (byte i)
  done;
  !r

(* Access tag byte: bit 0 selects register (0) or memory (1); bits 1-2
   the value-delta payload (raw varint, byte-reversed varint, zero —
   no payload —, or fixed 8-byte LE); for registers bit 3 flags a
   non-zero activation delta and bits 4-7 inline the register index
   (15 = varint follows); for memory bits 3-7 inline the address's low
   five bits (varint of the rest always follows). *)
let tag_mem = 1
let vk_raw = 0
and vk_swapped = 1
and vk_zero = 2
and vk_fixed8 = 3
let tag_vk vk = vk lsl 1
let tag_act_delta = 8  (* registers only *)
let reg_inline_max = 15  (* bits 4-7; 15 = escape to varint *)
let mem_inline_bits = 5  (* bits 3-7 hold addr land 0x1F *)

(* Delta state shared by the encoder and decoder: the previous event's
   stamps and the last value seen at each location. *)
type bstate = {
  mutable p_seq : int;
  mutable p_fidx : int;
  mutable p_pc : int;
  mutable p_act : int;
  mutable p_line : int;
  mutable p_region : int;
  mutable p_instance : int;
  mutable p_iter : int;
  shadow : int64 Loc.Tbl.t;
}

let bstate () =
  {
    p_seq = 0;
    p_fidx = 0;
    p_pc = 0;
    p_act = 0;
    p_line = 0;
    p_region = 0;
    p_instance = 0;
    p_iter = 0;
    shadow = Loc.Tbl.create 1024;
  }

type encoder = bstate

let encoder = bstate

let shadow_value st loc =
  match Loc.Tbl.find_opt st.shadow loc with Some v -> v | None -> 0L

let add_fixed8 (buf : Buffer.t) (v : int64) : unit =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  done

let encode_access (st : bstate) (buf : Buffer.t) ~(act : int)
    ((loc, v) : Loc.t * Value.t) : unit =
  let d = Int64.logxor v (shadow_value st loc) in
  let vk, payload =
    if Int64.equal d 0L then (vk_zero, 0L)
    else
      let swapped = bswap64 d in
      let lr = varint64_len d and ls = varint64_len swapped in
      if lr <= ls then if lr > 8 then (vk_fixed8, d) else (vk_raw, d)
      else if ls > 8 then (vk_fixed8, d)
      else (vk_swapped, swapped)
  in
  (match loc with
  | Loc.Reg (a, r) ->
      let da = a - act in
      let tag =
        tag_vk vk
        lor (if da <> 0 then tag_act_delta else 0)
        lor ((min r reg_inline_max) lsl 4)
      in
      Buffer.add_char buf (Char.chr tag);
      if da <> 0 then add_zigzag buf da;
      if r >= reg_inline_max then add_varint buf r
  | Loc.Mem m ->
      let tag = tag_mem lor tag_vk vk lor ((m land 0x1F) lsl 3) in
      Buffer.add_char buf (Char.chr tag);
      add_varint buf (m lsr mem_inline_bits));
  if vk = vk_raw || vk = vk_swapped then add_varint64 buf payload
  else if vk = vk_fixed8 then add_fixed8 buf payload;
  Loc.Tbl.replace st.shadow loc v

(* opclass tags (low nibble of the opmeta byte); part of binary format
   version 1 *)
let op_const = 0
and op_load = 1
and op_store = 2
and op_jmp = 3
and op_br_false = 4
and op_br_true = 5
and op_call = 6
and op_ret = 7
and op_mark = 8
and op_bin = 9
and op_un = 10
and op_intr = 11

let op_tag : Trace.opclass -> int = function
  | Trace.OConst -> op_const
  | Trace.OLoad -> op_load
  | Trace.OStore -> op_store
  | Trace.OJmp -> op_jmp
  | Trace.OBr false -> op_br_false
  | Trace.OBr true -> op_br_true
  | Trace.OCall -> op_call
  | Trace.ORet -> op_ret
  | Trace.OMark _ -> op_mark
  | Trace.OBin _ -> op_bin
  | Trace.OUn _ -> op_un
  | Trace.OIntr _ -> op_intr

(* Event layout: a stamp-flags byte (bit i set = stamp i differs from
   its prediction and an explicit zigzag delta follows), an opmeta byte
   (low nibble: opclass tag; bits 4-5 / 6-7: read / write counts, 3 =
   varint escape), the explicit stamp deltas in bit order, the opclass
   payload (op index byte, mark varint, or length-prefixed intrinsic
   name), then the read and write sets.  Predictions: seq and pc
   advance by one, every other stamp repeats — so straight-line
   execution pays two header bytes per event. *)
let stamp_count = 8

(* (prediction, actual) per stamp, in flag-bit order *)
let stamp_specs (st : bstate) (e : Trace.event) =
  [|
    (st.p_seq + 1, e.seq);
    (st.p_fidx, e.fidx);
    (st.p_pc + 1, e.pc);
    (st.p_act, e.act);
    (st.p_line, e.line);
    (st.p_region, e.region);
    (st.p_instance, e.instance);
    (st.p_iter, e.iter);
  |]

let remember (st : bstate) (e : Trace.event) : unit =
  st.p_seq <- e.seq;
  st.p_fidx <- e.fidx;
  st.p_pc <- e.pc;
  st.p_act <- e.act;
  st.p_line <- e.line;
  st.p_region <- e.region;
  st.p_instance <- e.instance;
  st.p_iter <- e.iter

let encode_event (st : bstate) (buf : Buffer.t) (e : Trace.event) : unit =
  let specs = stamp_specs st e in
  let flags = ref 0 in
  Array.iteri
    (fun i (pred, actual) -> if actual <> pred then flags := !flags lor (1 lsl i))
    specs;
  Buffer.add_char buf (Char.chr !flags);
  let count_bits n = if n < 3 then n else 3 in
  let nreads = Array.length e.reads and nwrites = Array.length e.writes in
  let opmeta =
    op_tag e.op lor (count_bits nreads lsl 4) lor (count_bits nwrites lsl 6)
  in
  Buffer.add_char buf (Char.chr opmeta);
  Array.iteri
    (fun i (pred, actual) ->
      if !flags land (1 lsl i) <> 0 then add_zigzag buf (actual - pred))
    specs;
  remember st e;
  (match e.op with
  | Trace.OMark m -> add_zigzag buf m
  | Trace.OBin op -> Buffer.add_char buf (Char.chr (Hashtbl.find bin_index op))
  | Trace.OUn op -> Buffer.add_char buf (Char.chr (Hashtbl.find un_index op))
  | Trace.OIntr s ->
      add_varint buf (String.length s);
      Buffer.add_string buf s
  | Trace.OConst | Trace.OLoad | Trace.OStore | Trace.OJmp | Trace.OBr _
  | Trace.OCall | Trace.ORet ->
      ());
  if nreads >= 3 then add_varint buf nreads;
  Array.iter (encode_access st buf ~act:e.act) e.reads;
  if nwrites >= 3 then add_varint buf nwrites;
  Array.iter (encode_access st buf ~act:e.act) e.writes

(* decoding reads bytes from an in_channel (which buffers in C) *)

let binary_error msg = parse_error ~line:"<binary trace>" ~token:"" msg

let read_varint64 (ic : in_channel) : int64 =
  let rec go shift acc =
    if shift > 63 then binary_error "varint longer than 64 bits"
    else
      let b =
        try input_byte ic
        with End_of_file -> binary_error "truncated varint"
      in
      let acc =
        Int64.logor acc (Int64.shift_left (Int64.of_int (b land 0x7F)) shift)
      in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0L

let read_varint ic = Int64.to_int (read_varint64 ic)
let read_zigzag ic = Int64.to_int (unzigzag64 (read_varint64 ic))

let read_byte what ic =
  try input_byte ic
  with End_of_file -> binary_error ("truncated " ^ what)

let read_fixed8 (ic : in_channel) : int64 =
  let v = ref 0L in
  for i = 0 to 7 do
    let b = read_byte "fixed value" ic in
    v := Int64.logor !v (Int64.shift_left (Int64.of_int b) (8 * i))
  done;
  !v

(* [n] bytes, read in bounded chunks so that a corrupt length ends in
   a truncation error instead of one huge allocation *)
let read_string what (ic : in_channel) n : string =
  let b = Buffer.create (min n 256) in
  let rec go left =
    if left > 0 then begin
      let k = min left 4096 in
      (try Buffer.add_channel b ic k
       with End_of_file -> binary_error ("truncated " ^ what));
      go (left - k)
    end
  in
  go n;
  Buffer.contents b

let decode_access (st : bstate) (ic : in_channel) ~(act : int) :
    Loc.t * Value.t =
  let tag = read_byte "access tag" ic in
  let vk = (tag lsr 1) land 3 in
  let loc =
    if tag land tag_mem <> 0 then
      let lo = (tag lsr 3) land 0x1F in
      let hi = read_varint ic in
      Loc.Mem ((hi lsl mem_inline_bits) lor lo)
    else
      let da = if tag land tag_act_delta <> 0 then read_zigzag ic else 0 in
      let r = tag lsr 4 in
      let r = if r >= reg_inline_max then read_varint ic else r in
      Loc.Reg (act + da, r)
  in
  let d =
    if vk = vk_zero then 0L
    else if vk = vk_fixed8 then read_fixed8 ic
    else
      let d = read_varint64 ic in
      if vk = vk_swapped then bswap64 d else d
  in
  let v = Int64.logxor d (shadow_value st loc) in
  Loc.Tbl.replace st.shadow loc v;
  (loc, v)

(** Decode one event; [None] at a clean end of stream.  An end of file
    inside an event raises {!Parse_error}. *)
let decode_event (st : bstate) (ic : in_channel) : Trace.event option =
  match input_byte ic with
  | exception End_of_file -> None
  | flags ->
      let opmeta = read_byte "opmeta" ic in
      let stamps = Array.make stamp_count 0 in
      let preds =
        [|
          st.p_seq + 1; st.p_fidx; st.p_pc + 1; st.p_act; st.p_line;
          st.p_region; st.p_instance; st.p_iter;
        |]
      in
      for i = 0 to stamp_count - 1 do
        stamps.(i) <-
          (if flags land (1 lsl i) <> 0 then preds.(i) + read_zigzag ic
           else preds.(i))
      done;
      let seq = stamps.(0)
      and fidx = stamps.(1)
      and pc = stamps.(2)
      and act = stamps.(3)
      and line = stamps.(4)
      and region = stamps.(5)
      and instance = stamps.(6)
      and iter = stamps.(7) in
      st.p_seq <- seq;
      st.p_fidx <- fidx;
      st.p_pc <- pc;
      st.p_act <- act;
      st.p_line <- line;
      st.p_region <- region;
      st.p_instance <- instance;
      st.p_iter <- iter;
      let op =
        let tag = opmeta land 0xF in
        if tag = op_const then Trace.OConst
        else if tag = op_load then Trace.OLoad
        else if tag = op_store then Trace.OStore
        else if tag = op_jmp then Trace.OJmp
        else if tag = op_br_false then Trace.OBr false
        else if tag = op_br_true then Trace.OBr true
        else if tag = op_call then Trace.OCall
        else if tag = op_ret then Trace.ORet
        else if tag = op_mark then Trace.OMark (read_zigzag ic)
        else if tag = op_bin then begin
          let i = read_byte "binary op" ic in
          if i >= Array.length bin_ops then
            binary_error (Printf.sprintf "unknown binary op index %d" i)
          else Trace.OBin bin_ops.(i)
        end
        else if tag = op_un then begin
          let i = read_byte "unary op" ic in
          if i >= Array.length un_ops then
            binary_error (Printf.sprintf "unknown unary op index %d" i)
          else Trace.OUn un_ops.(i)
        end
        else if tag = op_intr then begin
          let n = read_varint ic in
          if n < 0 then binary_error "negative intrinsic length"
          else Trace.OIntr (read_string "intrinsic name" ic n)
        end
        else binary_error (Printf.sprintf "unknown opclass tag %d" tag)
      in
      let count bits =
        let c = (opmeta lsr bits) land 3 in
        if c < 3 then c
        else
          let n = read_varint ic in
          if n < 3 then binary_error "invalid escaped access count" else n
      in
      (* decode strictly in stream order: each access mutates the
         shadow table.  The array grows as accesses decode, so a count
         past the end of the file ends in a truncation error *)
      let read_accesses n =
        if n = 0 then [||]
        else begin
          let a = ref (Array.make (min n 8) (decode_access st ic ~act)) in
          for k = 1 to n - 1 do
            let x = decode_access st ic ~act in
            if k = Array.length !a then begin
              let b = Array.make (min n (2 * k)) x in
              Array.blit !a 0 b 0 k;
              a := b
            end;
            !a.(k) <- x
          done;
          !a
        end
      in
      let reads = read_accesses (count 4) in
      let writes = read_accesses (count 6) in
      Some
        {
          Trace.seq; fidx; pc; act; line; region; instance; iter; op; reads;
          writes;
        }

(* --- writers ------------------------------------------------------------ *)

type writer = {
  w_oc : out_channel;
  w_buf : Buffer.t;
  w_enc : bstate option;  (** [Some] = binary *)
  mutable w_events : int;
  mutable w_bytes : int;  (** bytes written so far, header included *)
}

let flush_threshold = 1 lsl 20

let writer ?(format = Text) (oc : out_channel) : writer =
  let w =
    {
      w_oc = oc;
      w_buf = Buffer.create 65536;
      w_enc = (match format with Text -> None | Binary -> Some (bstate ()));
      w_events = 0;
      w_bytes = 0;
    }
  in
  (match format with Text -> () | Binary -> Buffer.add_string w.w_buf magic);
  w

let write (w : writer) (e : Trace.event) : unit =
  (match w.w_enc with
  | None -> write_event w.w_buf e
  | Some st -> encode_event st w.w_buf e);
  w.w_events <- w.w_events + 1;
  if Buffer.length w.w_buf > flush_threshold then begin
    w.w_bytes <- w.w_bytes + Buffer.length w.w_buf;
    Buffer.output_buffer w.w_oc w.w_buf;
    Buffer.clear w.w_buf
  end

(** Flush buffered events to the channel (the channel stays open). *)
let flush_writer (w : writer) : unit =
  w.w_bytes <- w.w_bytes + Buffer.length w.w_buf;
  Buffer.output_buffer w.w_oc w.w_buf;
  Buffer.clear w.w_buf;
  flush w.w_oc

let writer_events (w : writer) = w.w_events
let writer_bytes (w : writer) = w.w_bytes + Buffer.length w.w_buf

(** Serialize a whole trace to a channel. *)
let write_channel ?(format = Text) (oc : out_channel) (t : Trace.t) : unit =
  let w = writer ~format oc in
  Trace.iter (fun e -> write w e) t;
  flush_writer w

let save ?(format = Text) (path : string) (t : Trace.t) : unit =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_channel ~format oc t)

(* --- readers ------------------------------------------------------------ *)

let binary_seq (ic : in_channel) : Trace.event Seq.t =
  let st = bstate () in
  let rec next () =
    match decode_event st ic with
    | None -> Seq.Nil
    | Some e -> Seq.Cons (e, next)
  in
  next

(* Text events as a lazy sequence.  [carry] is a prefix already read
   from the channel during format sniffing; a text trace line is always
   longer than the probe, so the common case simply prepends it to the
   first line.  Empty lines are skipped, as in the historical reader. *)
let text_seq ~(carry : string) (ic : in_channel) : Trace.event Seq.t =
  let read_line_opt () = try Some (input_line ic) with End_of_file -> None in
  let first_lines =
    if String.equal carry "" then []
    else if String.contains carry '\n' then begin
      (* only reachable on hand-written files with a tiny first line *)
      let parts = String.split_on_char '\n' carry in
      match List.rev parts with
      | last :: complete_rev ->
          let completed =
            match read_line_opt () with
            | Some rest -> [ last ^ rest ]
            | None -> if String.equal last "" then [] else [ last ]
          in
          List.rev_append complete_rev completed
      | [] -> []
    end
    else
      match read_line_opt () with
      | Some rest -> [ carry ^ rest ]
      | None -> [ carry ]
  in
  let rec from_pending pending () =
    match pending with
    | line :: rest ->
        if String.length line = 0 then from_pending rest ()
        else Seq.Cons (parse_event line, from_pending rest)
    | [] -> (
        match read_line_opt () with
        | None -> Seq.Nil
        | Some line ->
            if String.length line = 0 then from_pending [] ()
            else Seq.Cons (parse_event line, from_pending []))
  in
  from_pending first_lines

(** Events of a channel as a lazy sequence; the encoding is sniffed
    from the first bytes (the binary magic vs. a text line).  The
    sequence is single-shot: it consumes the channel as it is forced. *)
let events_of_channel (ic : in_channel) : Trace.event Seq.t =
  let probe = Bytes.create (String.length magic) in
  let got =
    let rec fill k =
      if k >= Bytes.length probe then k
      else
        match input_char ic with
        | exception End_of_file -> k
        | c ->
            Bytes.set probe k c;
            fill (k + 1)
    in
    fill 0
  in
  let probe = Bytes.sub_string probe 0 got in
  if String.equal probe magic then binary_seq ic
  else if got = 0 then Seq.empty
  else if String.length probe >= 1 && Char.equal probe.[0] magic.[0] then
    parse_error ~line:probe ~token:""
      "binary trace magic mismatch (unsupported version?)"
  else text_seq ~carry:probe ic

(** Read a whole trace back from a channel (either encoding). *)
let read_channel (ic : in_channel) : Trace.t =
  let t = Trace.create () in
  Seq.iter (Trace.push_event t) (events_of_channel ic);
  Trace.trim t;
  t

let load (path : string) : Trace.t =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

(* --- region-instance splitting ------------------------------------------ *)

(** Split an event stream into one file per code-region instance under
    [dir] (the paper's trace-splitting step), named
    [<prefix>_r<region>_i<instance>.trace].  Streaming: one pass, one
    open piece at a time, memory independent of the trace length.
    Returns the files written, in encounter order. *)
let split_seq ~(dir : string) ?(prefix = "trace") ?(format = Text)
    (events : Trace.event Seq.t) : string list =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let paths = ref [] in
  let cur = ref None (* (rid, number, oc, writer) *) in
  let close_cur () =
    match !cur with
    | None -> ()
    | Some (_, _, oc, w) ->
        flush_writer w;
        close_out oc;
        cur := None
  in
  let open_piece rid number =
    let path =
      Filename.concat dir (Printf.sprintf "%s_r%d_i%d.trace" prefix rid number)
    in
    let oc = open_out_bin path in
    cur := Some (rid, number, oc, writer ~format oc);
    paths := path :: !paths
  in
  Fun.protect ~finally:close_cur (fun () ->
      Seq.iter
        (fun (e : Trace.event) ->
          (match !cur with
          | Some (rid, number, _, _)
            when e.Trace.region = rid && e.Trace.instance = number ->
              ()
          | Some _ | None ->
              close_cur ();
              if e.Trace.region >= 0 then open_piece e.Trace.region e.Trace.instance);
          match !cur with
          | Some (_, _, _, w) -> write w e
          | None -> ())
        events);
  List.rev !paths
