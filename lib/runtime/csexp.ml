(** Canonical s-expressions (csexp): the journal's wire format.

    Canonical form is trivially streamable and self-delimiting — an
    atom is [<len>:<bytes>], a list is [(...)] — which makes an
    append-only log of records readable even after a crash truncated
    the tail mid-record: decoding simply stops at the first incomplete
    record. *)

type t = Atom of string | List of t list

let rec to_buffer (buf : Buffer.t) = function
  | Atom s ->
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s
  | List xs ->
      Buffer.add_char buf '(';
      List.iter (to_buffer buf) xs;
      Buffer.add_char buf ')'

let to_string (x : t) : string =
  let buf = Buffer.create 64 in
  to_buffer buf x;
  Buffer.contents buf

(** Decode one value of [b] between [pos] and [stop].  Returns the
    value and the position just past it, or [None] when the input is
    malformed or truncated at or after [pos]. *)
let decode_sub (b : bytes) ~(pos : int) ~(stop : int) : (t * int) option =
  let n = stop in
  let rec value pos =
    if pos >= n then None
    else
      match Bytes.get b pos with
      | '(' -> items (pos + 1) []
      | '0' .. '9' -> atom pos 0 pos
      | _ -> None
  and items pos acc =
    if pos >= n then None
    else if Bytes.get b pos = ')' then Some (List (List.rev acc), pos + 1)
    else
      match value pos with
      | Some (v, pos') -> items pos' (v :: acc)
      | None -> None
  and atom start len pos =
    if pos >= n then None
    else
      match Bytes.get b pos with
      | '0' .. '9' ->
          (* cap the length before it can overflow or run away *)
          if len > 0x3FFF_FFFF then None
          else
            atom start
              ((len * 10) + (Char.code (Bytes.get b pos) - Char.code '0'))
              (pos + 1)
      | ':' ->
          if pos = start then None
          else if pos + 1 + len > n then None
          else Some (Atom (Bytes.sub_string b (pos + 1) len), pos + 1 + len)
      | _ -> None
  in
  value pos

let decode_one (s : string) ~(pos : int) : (t * int) option =
  decode_sub (Bytes.unsafe_of_string s) ~pos ~stop:(String.length s)

(** Decode the longest valid prefix of [s]: the records and the byte
    offset where decoding stopped (= [String.length s] iff the whole
    input was well-formed).  Newlines between records are skipped — the
    journal writes one per record for human eyes — and the stop offset
    sits past them, so truncating there preserves the separator of the
    last complete record. *)
let decode_prefix (s : string) : t list * int =
  let n = String.length s in
  let rec skip pos =
    if pos < n && (s.[pos] = '\n' || s.[pos] = '\r') then skip (pos + 1)
    else pos
  in
  let rec go pos acc =
    let pos = skip pos in
    match decode_one s ~pos with
    | Some (v, pos') -> go pos' (v :: acc)
    | None -> (List.rev acc, pos)
  in
  go 0 []

let of_string (s : string) : t option =
  match decode_one s ~pos:0 with
  | Some (v, pos) when pos = String.length s -> Some v
  | Some _ | None -> None
