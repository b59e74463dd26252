(** Per-location access index over a trace.

    For every location, the sorted sequence of (event index, read/write)
    accesses.  This is the substrate of the liveness side of the ACL
    table: a corrupted location is *alive* at time [t] if it will be
    read again after [t] before being overwritten.

    Layout: every access is one packed int, [index lsl 1 lor is_write],
    so within an event a read sorts before a write, as the trace lists
    them.  A counting sort over two passes of the trace lays each
    location's accesses out contiguously in [data], in trace order:
    location [id] owns [data.(off.(id)) .. data.(off.(id + 1) - 1)].
    Location ids are the trace's slots ({!Trace.slots}).  Both passes
    read the slot column and build no event, and nothing is allocated
    per access: the first pass counts each location's accesses, the
    second fills [data]. *)

type kind = Read | Write

type fate =
  [ `Dies_after_read of int * int option
  | `Overwritten_at of int
  | `Never_used ]

type t = {
  ids : Trace.slots;  (** location -> id *)
  off : int array;  (** [nlocs + 1] offsets into [data] *)
  data : int array;  (** packed accesses, grouped by location id *)
}

let build (tr : Trace.t) : t =
  let ids = Trace.slots tr in
  let col = Trace.slot_column ids and n = Trace.length tr in
  let id p = Int32.to_int (Bigarray.Array1.unsafe_get col p) in
  (* every access, in trace order, has its slot at [col.{p}] *)
  let nacc = Bigarray.Array1.dim col and nlocs = Trace.nslots ids in
  (* [off.(id + 1)]: the accesses of location [id], then its end *)
  let off = Array.make (nlocs + 1) 0 in
  for p = 0 to nacc - 1 do
    let i = id p + 1 in
    Array.unsafe_set off i (Array.unsafe_get off i + 1)
  done;
  for id = 1 to nlocs do
    off.(id) <- off.(id) + off.(id - 1)
  done;
  let data = Array.make off.(nlocs) 0 in
  let fill = Array.sub off 0 nlocs in
  let put packed p =
    let id = id p in
    let at = Array.unsafe_get fill id in
    Array.unsafe_set data at packed;
    Array.unsafe_set fill id (at + 1)
  in
  for i = 0 to n - 1 do
    let r = i lsl 1 and a = Trace.reads_at tr i and w = Trace.writes_at tr i in
    for p = a to w - 1 do
      put r p
    done;
    for p = w to w + Trace.nwrites tr i - 1 do
      put (r lor 1) p
    done
  done;
  { ids; off; data }

(* [loc]'s accesses are [t.data.(lo t id) .. t.data.(hi t id - 1)], where
   [id = slot t loc]; both bounds are 0 for an untouched location *)
let slot (t : t) (loc : Loc.t) : int = Trace.slot_of_key t.ids (Loc.key loc)
let lo (t : t) (id : int) = if id < 0 then 0 else Array.unsafe_get t.off id
let hi (t : t) (id : int) = if id < 0 then 0 else Array.unsafe_get t.off (id + 1)

let accesses (t : t) (loc : Loc.t) : (int * kind) array =
  let id = slot t loc in
  let a = lo t id in
  Array.init (hi t id - a) (fun k ->
      let p = t.data.(a + k) in
      (p lsr 1, if p land 1 = 1 then Write else Read))

(* first position in [a, b) whose event index is strictly greater than
   [i], i.e. whose packed value exceeds [2i + 1] *)
let first_after (data : int array) (a : int) (b : int) (i : int) : int =
  if i < 0 then a
  else if i >= max_int lsr 1 then b
  else
    let key = (i lsl 1) lor 1 in
    let rec bs a b =
      if a >= b then a
      else
        let mid = (a + b) lsr 1 in
        if Array.unsafe_get data mid <= key then bs (mid + 1) b else bs a mid
    in
    bs a b

(** The fate of a location's current value established at event [t]:
    scanning forward, reads keep it alive; the first write ends it.
    Returns [`Dies_after_read (r, next_write)] where [r] is the event
    index of the *last read* before the next write (the value is
    referenced up to [r], dead after) and [next_write] the index of that
    write, if one follows; [`Overwritten_at w] if a write at [w] comes
    before any read; or [`Never_used] if there are no further accesses
    at all. *)
let fate (t : t) (loc : Loc.t) ~(after : int) : fate =
  let id = slot t loc in
  let b = hi t id in
  let data = t.data in
  let rec scan k last_read =
    if k >= b then
      if last_read >= 0 then `Dies_after_read (last_read, None) else `Never_used
    else
      let p = Array.unsafe_get data k in
      if p land 1 = 0 then scan (k + 1) (p lsr 1)
      else if last_read >= 0 then `Dies_after_read (last_read, Some (p lsr 1))
      else `Overwritten_at (p lsr 1)
  in
  scan (first_after data (lo t id) b after) (-1)
