(** A small domain pool: apply a function to every element of an array
    on [jobs] OCaml 5 domains.

    Work is distributed by an atomic next-index counter, so domains
    self-balance across uneven trial costs; each result slot is written
    by exactly one domain and published by [Domain.join].  The mapped
    function must confine any nondeterminism to its own arguments —
    the executor guarantees this by deriving per-trial RNG streams
    from the trial index, which is what makes results bit-identical
    regardless of worker count or scheduling. *)

let map ~(jobs : int) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  (* more domains than cores only time-slice (and OCaml refuses more
     than 128) *)
  let jobs = max 1 (min (min jobs n) (Domain.recommended_domain_count ())) in
  if jobs <= 1 then Array.map f xs
  else begin
    let out : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          out.(i) <-
            Some
              (match f xs.(i) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      out
  end
