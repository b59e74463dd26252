(** Fault models: what a single injected fault does to its target
    datum.

    The paper's campaigns (and PR 4's numbers) use the classic
    single-bit flip.  Real upsets are not always single-bit: multi-cell
    upsets flip physically adjacent bits, long transients corrupt a
    burst of bits, and latch defects hold a line at a fixed level.
    Each model samples a {!Machine.corruption} for a datum of a given
    bit width; the sampling of {e where} the fault lands (which dynamic
    instruction, which memory word) stays in [Campaign] and is shared
    by every model, so paired campaigns under a common RNG stream
    differ only in the corruption applied.

    [Single_bit] draws exactly one [Rng.int] — the same draw the
    pre-model code made — so campaigns under the default model are
    count-identical to their historical results. *)

type t =
  | Single_bit  (** flip one uniformly chosen bit *)
  | Double_adjacent
      (** flip two adjacent bits (a 2-bit multi-cell upset) *)
  | Burst of int
      (** flip a random non-empty pattern inside a [k]-bit window *)
  | Stuck_at  (** force one uniformly chosen bit to 0 or 1 *)

let to_string = function
  | Single_bit -> "single-bit"
  | Double_adjacent -> "double-adjacent"
  | Burst k -> Printf.sprintf "burst-%d" k
  | Stuck_at -> "stuck-at"

(** Concrete spellings for did-you-mean suggestions. *)
let names = [ "single-bit"; "double-adjacent"; "burst-4"; "stuck-at" ]

let of_string (s : string) : (t, string) result =
  match s with
  | "single-bit" -> Ok Single_bit
  | "double-adjacent" -> Ok Double_adjacent
  | "stuck-at" -> Ok Stuck_at
  | _ -> (
      let burst_k =
        if String.length s > 6 && String.equal (String.sub s 0 6) "burst-" then
          int_of_string_opt (String.sub s 6 (String.length s - 6))
        else None
      in
      match burst_k with
      | Some k when k >= 2 && k <= 64 -> Ok (Burst k)
      | Some _ -> Error (Printf.sprintf "burst width out of range [2,64]: %s" s)
      | None -> Error (Printf.sprintf "unknown fault model %S" s))

(** Sample a corruption for a [bits]-wide datum.  Every model confines
    its corruption to the low [bits] bits, mirroring how single-bit
    flips always targeted the datum's own width. *)
let sample (m : t) (rng : Rng.t) ~(bits : int) : Machine.corruption =
  match m with
  | Single_bit -> Machine.flip (Rng.int rng bits)
  | Double_adjacent ->
      (* a 1-bit datum cannot hold an adjacent pair; degrade to the
         only flip it supports rather than reject the site *)
      if bits < 2 then Machine.flip 0
      else
        let b = Rng.int rng (bits - 1) in
        { and_mask = -1L; or_mask = 0L; xor_mask = Int64.shift_left 3L b }
  | Burst k ->
      let k = max 1 (min k bits) in
      let start = Rng.int rng (bits - k + 1) in
      (* random pattern in the window, anchored: the window's low bit
         always flips, so the burst is non-empty and starts at [start] *)
      let pattern =
        if k >= 64 then Rng.next_int64 rng
        else
          Int64.logand (Rng.next_int64 rng)
            (Int64.sub (Int64.shift_left 1L k) 1L)
      in
      let pattern = Int64.logor pattern 1L in
      {
        and_mask = -1L;
        or_mask = 0L;
        xor_mask = Int64.shift_left pattern start;
      }
  | Stuck_at ->
      let b = Rng.int rng bits in
      let stuck_high = Rng.int rng 2 = 1 in
      if stuck_high then
        { and_mask = -1L; or_mask = Int64.shift_left 1L b; xor_mask = 0L }
      else
        {
          and_mask = Int64.lognot (Int64.shift_left 1L b);
          or_mask = 0L;
          xor_mask = 0L;
        }
