(** Code-region instances in a dynamic trace.

    A region instance is a maximal contiguous span of trace events that
    share the same effective region id and instance number — one
    dynamic execution of a code region (the tracer stamps both).  The
    chain of instances is the paper's top-level application model: the
    program is a chain of code-region instances, and errors propagate
    across that chain. *)

type instance = {
  rid : int;       (** region id, index into [Prog.region_table] *)
  number : int;    (** instance number of this region (0-based) *)
  lo : int;        (** first event index (inclusive) *)
  hi : int;        (** last event index (exclusive) *)
  iter : int;      (** main-loop iteration the instance started in *)
}

(** Extract the chain of region instances from a trace in one pass, in
    execution order.  Events with effective region -1 (outside all
    regions) are not part of any instance. *)
let instances (t : Trace.t) : instance list =
  let acc = ref [] in
  let cur = ref None in
  let flush upto =
    match !cur with
    | None -> ()
    | Some (rid, number, lo, iter) ->
        acc := { rid; number; lo; hi = upto; iter } :: !acc;
        cur := None
  in
  for i = 0 to Trace.length t - 1 do
    let region = Trace.region t i and instance = Trace.instance t i in
    match !cur with
    | Some (rid, number, _, _) when region = rid && instance = number -> ()
    | Some _ | None ->
        flush i;
        if region >= 0 then cur := Some (region, instance, i, Trace.iter_at t i)
  done;
  flush (Trace.length t);
  List.rev !acc

(** Instances of one region, in instance order. *)
let instances_of (t : Trace.t) (rid : int) : instance list =
  List.filter (fun inst -> inst.rid = rid) (instances t)

(** The [n]-th instance of region [rid]. *)
let find_instance (t : Trace.t) ~(rid : int) ~(number : int) : instance option =
  List.find_opt (fun i -> i.number = number) (instances_of t rid)

(** Dynamic instruction count of an instance. *)
let size (i : instance) = i.hi - i.lo

(** Event index spans of each main-loop iteration, keyed by iteration
    number (from the iteration marker).  Iteration -1 (setup) is
    excluded. *)
let iteration_spans (t : Trace.t) : (int * (int * int)) list =
  let spans = Hashtbl.create 16 in
  for i = 0 to Trace.length t - 1 do
    let it = Trace.iter_at t i in
    if it >= 0 then
      match Hashtbl.find_opt spans it with
      | None -> Hashtbl.replace spans it (i, i + 1)
      | Some (lo, _) -> Hashtbl.replace spans it (lo, i + 1)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) spans []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let pp_instance ppf (i : instance) =
  Fmt.pf ppf "region %d inst %d events [%d,%d) iter %d" i.rid i.number i.lo
    i.hi i.iter
