(** Per-location access index over a trace.

    For every location, the sorted sequence of (event index, read/write)
    accesses.  This is the substrate of the liveness side of the ACL
    table: a corrupted location is *alive* at time [t] if it will be
    read again after [t] before being overwritten.

    Layout: every access is one packed int, [index lsl 1 lor is_write],
    so within an event a read sorts before a write, as the trace lists
    them.  Building appends each access, tagged with its location's id
    in the high bits, to one flat buffer in trace order; a stable
    counting sort then lays each location's accesses out contiguously
    in [data]: location [id] owns [data.(off.(id)) .. data.(off.(id + 1)
    - 1)].  Location ids come from a dense {!Loc_store}.  Nothing is
    allocated per access: only the buffers, which double as needed,
    and the unsorted one is reused by the domain's next build. *)

type kind = Read | Write

type fate =
  [ `Dies_after_read of int * int option
  | `Overwritten_at of int
  | `Never_used ]

type t = {
  ids : int Loc_store.t;  (** location -> id, -1 for untouched ones *)
  off : int array;  (** [nlocs + 1] offsets into [data] *)
  data : int array;  (** packed accesses, grouped by location id *)
  events : int;  (** events indexed *)
}

(* The unsorted access list is garbage once the sort has run, and
   mining builds an index per analyzed injection: each domain keeps the
   largest list it has needed and reuses it, so an index allocates only
   its sorted [data] and [off].  The slot is [None] while a build holds
   the list; a build that finds it empty (nested in another build's
   event source, or after a build that raised) starts a new one. *)
let spare : int array option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* the index of the events [iter] feeds, in order *)
let index (iter : (Trace.event -> unit) -> unit) : t =
  let ids = Loc_store.create (-1) in
  let nlocs = ref 0 in
  let slot = Domain.DLS.get spare in
  (* every access as [id lsl 32 lor packed], in trace order *)
  let pairs =
    match !slot with
    | Some buf ->
        slot := None;
        ref buf
    | None -> ref (Array.make 8192 0)
  in
  let len = ref 0 in
  let add loc packed =
    let id =
      match Loc_store.get ids loc with
      | -1 ->
          let id = !nlocs in
          Loc_store.set ids loc id;
          incr nlocs;
          id
      | id -> id
    in
    if !len = Array.length !pairs then begin
      let b = Array.make (2 * !len) 0 in
      Array.blit !pairs 0 b 0 !len;
      pairs := b
    end;
    Array.unsafe_set !pairs !len ((id lsl 32) lor packed);
    incr len
  in
  let i = ref 0 in
  iter (fun (e : Trace.event) ->
      if !i >= 1 lsl 31 then invalid_arg "Access: more than 2^31 events";
      let r = !i lsl 1 in
      for k = 0 to Array.length e.reads - 1 do
        add (fst (Array.unsafe_get e.reads k)) r
      done;
      for k = 0 to Array.length e.writes - 1 do
        add (fst (Array.unsafe_get e.writes k)) (r lor 1)
      done;
      incr i);
  slot := Some !pairs;
  let pairs = !pairs and len = !len and nlocs = !nlocs in
  let mask = (1 lsl 32) - 1 in
  (* counting sort by id; stable, so each slice stays in trace order *)
  let off = Array.make (nlocs + 1) 0 in
  for k = 0 to len - 1 do
    let id = Array.unsafe_get pairs k lsr 32 in
    Array.unsafe_set off (id + 1) (Array.unsafe_get off (id + 1) + 1)
  done;
  for id = 1 to nlocs do
    off.(id) <- off.(id) + off.(id - 1)
  done;
  let data = Array.make len 0 in
  let fill = Array.sub off 0 nlocs in
  for k = 0 to len - 1 do
    let p = Array.unsafe_get pairs k in
    let id = p lsr 32 in
    let at = Array.unsafe_get fill id in
    Array.unsafe_set data at (p land mask);
    Array.unsafe_set fill id (at + 1)
  done;
  { ids; off; data; events = !i }

let events (t : t) = t.events
let build (tr : Trace.t) : t = index (fun f -> Trace.iter f tr)

(* [loc]'s accesses are [t.data.(lo t id) .. t.data.(hi t id - 1)], where
   [id = slot t loc]; both bounds are 0 for an untouched location *)
let slot (t : t) (loc : Loc.t) : int = Loc_store.get t.ids loc
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

(** Is the value in [loc] established at event [after] referenced again
    before being overwritten? *)
let alive (t : t) (loc : Loc.t) ~(after : int) : bool =
  let id = slot t loc in
  let b = hi t id in
  let k = first_after t.data (lo t id) b after in
  k < b && t.data.(k) land 1 = 0

(* is there an access of parity [w] to [loc] in events [lo_i, hi_i)? *)
let accessed_in (t : t) (loc : Loc.t) ~(w : int) ~(lo_i : int) ~(hi_i : int)
    : bool =
  let id = slot t loc in
  let b = hi t id in
  let data = t.data in
  let rec scan k =
    k < b
    && (let p = Array.unsafe_get data k in
        p lsr 1 < hi_i && (p land 1 = w || scan (k + 1)))
  in
  scan (first_after data (lo t id) b (lo_i - 1))

(** Is [loc] read anywhere in the event interval [lo, hi)? *)
let read_in (t : t) (loc : Loc.t) ~(lo : int) ~(hi : int) : bool =
  accessed_in t loc ~w:0 ~lo_i:lo ~hi_i:hi

(** Is [loc] written anywhere in the event interval [lo, hi)? *)
let written_in (t : t) (loc : Loc.t) ~(lo : int) ~(hi : int) : bool =
  accessed_in t loc ~w:1 ~lo_i:lo ~hi_i:hi
