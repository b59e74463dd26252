(* Spans the benchmark records around its own calls into the program's
   layers.  They stay in memory and are written out when the run ends;
   recording is off unless [enabled] is set (the traced run). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* the innermost open span of the calling domain; 0 is the root *)
let current = Domain.DLS.new_key (fun () -> 0)

let push s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

(* [with_ ?parent name f] runs [f] inside a span; [parent] overrides the
   calling domain's innermost span (for work handed to other domains) *)
let with_ ?parent name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      match parent with Some p -> p | None -> Domain.DLS.get current
    in
    let saved = Domain.DLS.get current in
    Domain.DLS.set current id;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        Domain.DLS.set current saved;
        push { id; name; parent; start; stop })
      f
  end

(* the id the next span opened by this domain will have as its parent *)
let innermost () = Domain.DLS.get current

(* a span whose bounds were observed rather than wrapped (a batch
   between two progress callbacks) *)
let record ?parent name ~start ~stop =
  if !enabled then
    let parent =
      match parent with Some p -> p | None -> Domain.DLS.get current
    in
    push { id = Atomic.fetch_and_add next_id 1; name; parent; start; stop }

let all () = Mutex.protect lock (fun () -> List.rev !recorded)
let dur s = s.stop -. s.start
let named name = List.filter (fun s -> String.equal s.name name) (all ())
let total name = List.fold_left (fun a s -> a +. dur s) 0.0 (named name)
let durations name = List.map dur (named name)

(* a span's self time: its length minus the part of it that its
   children cover (children may overlap when they ran on several
   domains, so their intervals are merged first) *)
let self_time name =
  let spans = all () in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.fold_left
    (fun acc s ->
      if not (String.equal s.name name) then acc
      else
        let ivs =
          Hashtbl.find_all children s.id
          |> List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
          |> List.filter (fun (a, b) -> b > a)
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (cov, reach) (a, b) ->
              if b <= reach then (cov, reach)
              else (cov +. (b -. Float.max a reach), b))
            (0.0, neg_infinity) ivs
        in
        acc +. (dur s -. covered))
    0.0 spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.9f, \"end\": %.9f}\n"
        s.id s.name s.parent s.start s.stop)
    (all ());
  close_out oc
