(** Lightweight in-process observability: named phase timers, counters,
    and log2-bucketed histograms, rendered as a fixed-width report.

    A registry ([t]) is cheap to create and thread-safe, so one can be
    shared across the executor's worker domains.  Rendering preserves
    first-use order, which keeps phase tables readable as pipelines.

    Timers read [Monotonic_clock.now] (bechamel's monotonic clock), so a
    wall-clock step cannot distort a sample. *)

type phase = {
  mutable p_calls : int;
  mutable p_wall_s : float;
  p_order : int;
}

type counter = { mutable c_value : int; c_order : int }

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;  (** bucket [i] counts samples in [2^i, 2^(i+1)) *)
  h_order : int;
}

type t = {
  mutable next_order : int;
  phases : (string, phase) Hashtbl.t;
  counters : (string, counter) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mu : Mutex.t;
}

let create () =
  {
    next_order = 0;
    phases = Hashtbl.create 16;
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    mu = Mutex.create ();
  }

let locked (t : t) f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let order (t : t) =
  let o = t.next_order in
  t.next_order <- o + 1;
  o

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let add_sample (t : t) (name : string) (dt : float) : unit =
  locked t (fun () ->
      let p =
        match Hashtbl.find_opt t.phases name with
        | Some p -> p
        | None ->
            let p = { p_calls = 0; p_wall_s = 0.0; p_order = order t } in
            Hashtbl.add t.phases name p;
            p
      in
      p.p_calls <- p.p_calls + 1;
      p.p_wall_s <- p.p_wall_s +. Float.max 0.0 dt)

(** Time [f] under phase [name] (accumulating across calls); the
    sample is recorded even if [f] raises. *)
let phase (t : t) (name : string) (f : unit -> 'a) : 'a =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add_sample t name (now () -. t0)) f

let count (t : t) (name : string) (n : int) : unit =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c.c_value <- c.c_value + n
      | None ->
          Hashtbl.add t.counters name { c_value = n; c_order = order t })

let bucket_of (v : int) : int =
  (* log2 bucket, clamped: bucket i holds [2^i, 2^(i+1)), bucket 0
     holds 0 and 1 *)
  let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
  min 62 (go (max 0 v) 0)

(** Record one sample of a size/latency-style distribution (e.g. bytes
    per event, events per piece). *)
let observe (t : t) (name : string) (v : int) : unit =
  locked t (fun () ->
      let h =
        match Hashtbl.find_opt t.hists name with
        | Some h -> h
        | None ->
            let h =
              {
                h_count = 0;
                h_sum = 0.0;
                h_min = max_int;
                h_max = min_int;
                h_buckets = Array.make 63 0;
                h_order = order t;
              }
            in
            Hashtbl.add t.hists name h;
            h
      in
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. float_of_int v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = bucket_of v in
      h.h_buckets.(b) <- h.h_buckets.(b) + 1)

(* --- queries (tests, custom rendering) --- *)

let phase_wall (t : t) (name : string) : float option =
  locked t (fun () ->
      Option.map (fun p -> p.p_wall_s) (Hashtbl.find_opt t.phases name))

let counter_value (t : t) (name : string) : int option =
  locked t (fun () ->
      Option.map (fun c -> c.c_value) (Hashtbl.find_opt t.counters name))

let counters (t : t) : (string * int) list =
  locked t (fun () ->
      Hashtbl.fold (fun name c acc -> (name, c.c_value, c.c_order) :: acc)
        t.counters []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
      |> List.map (fun (name, v, _) -> (name, v)))

let hist_stats (t : t) (name : string) : (int * float * int * int) option =
  locked t (fun () ->
      Option.map
        (fun h -> (h.h_count, h.h_sum, h.h_min, h.h_max))
        (Hashtbl.find_opt t.hists name))

(* --- rendering --- *)

let by_order proj l = List.sort (fun a b -> Int.compare (proj a) (proj b)) l

let human_count (v : float) : string =
  if Float.abs v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

(** The full report: a phase table (wall seconds, share of total,
    calls), counters (with per-second rates against the matching
    phase when the name contains a '/'-prefix match), and histogram
    summaries with a sparkline of the log2 buckets. *)
let report (t : t) : string =
  locked t (fun () ->
      let buf = Buffer.create 1024 in
      let phases =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.phases []
        |> by_order (fun (_, p) -> p.p_order)
      in
      let total_wall =
        List.fold_left (fun acc (_, p) -> acc +. p.p_wall_s) 0.0 phases
      in
      if phases <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "%-28s %10s %6s %8s\n" "phase" "wall(s)" "share"
             "calls");
        List.iter
          (fun (name, p) ->
            let share =
              if total_wall > 0.0 then 100.0 *. p.p_wall_s /. total_wall
              else 0.0
            in
            Buffer.add_string buf
              (Printf.sprintf "%-28s %10.3f %5.1f%% %8d\n" name p.p_wall_s
                 share p.p_calls))
          phases;
        Buffer.add_string buf
          (Printf.sprintf "%-28s %10.3f %5.1f%%\n" "total" total_wall 100.0)
      end;
      let counters =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters []
        |> by_order (fun (_, c) -> c.c_order)
      in
      if counters <> [] then begin
        if phases <> [] then Buffer.add_char buf '\n';
        Buffer.add_string buf
          (Printf.sprintf "%-28s %12s %10s\n" "counter" "value" "per-s");
        List.iter
          (fun (name, c) ->
            let rate =
              if total_wall > 0.0 then
                human_count (float_of_int c.c_value /. total_wall)
              else "-"
            in
            Buffer.add_string buf
              (Printf.sprintf "%-28s %12d %10s\n" name c.c_value rate))
          counters
      end;
      let hists =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hists []
        |> by_order (fun (_, h) -> h.h_order)
      in
      if hists <> [] then begin
        if phases <> [] || counters <> [] then Buffer.add_char buf '\n';
        Buffer.add_string buf
          (Printf.sprintf "%-28s %10s %10s %8s %8s  %s\n" "histogram" "count"
             "mean" "min" "max" "log2 buckets");
        List.iter
          (fun (name, h) ->
            let mean =
              if h.h_count > 0 then h.h_sum /. float_of_int h.h_count else 0.0
            in
            (* sparkline over the occupied bucket range *)
            let lo = bucket_of (max 0 h.h_min)
            and hi = bucket_of (max 0 h.h_max) in
            let peak =
              Array.fold_left max 1 h.h_buckets
            in
            let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
            let spark = Buffer.create 16 in
            for b = lo to hi do
              let v = h.h_buckets.(b) in
              let g =
                if v = 0 then 0
                else 1 + (v * (Array.length glyphs - 2) / peak)
              in
              Buffer.add_char spark glyphs.(min g (Array.length glyphs - 1))
            done;
            Buffer.add_string buf
              (Printf.sprintf "%-28s %10d %10.1f %8d %8d  2^%d[%s]2^%d\n" name
                 h.h_count mean
                 (if h.h_min = max_int then 0 else h.h_min)
                 (if h.h_max = min_int then 0 else h.h_max)
                 lo (Buffer.contents spark) (hi + 1)))
          hists
      end;
      Buffer.contents buf)

let is_empty (t : t) : bool =
  locked t (fun () ->
      Hashtbl.length t.phases = 0
      && Hashtbl.length t.counters = 0
      && Hashtbl.length t.hists = 0)
