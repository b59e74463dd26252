(** Weighted pattern rates — the paper's stated future work.

    Section VII-B's limitation: "Different instances of a pattern can
    have different weight ... considering different cases of shifting
    where the value is shifted right/left x times, depending on the
    value of x the error may or may not be masked.  While simply
    counting the number of pattern instances limits the prediction
    accuracy (one should also take into account the value of
    locations) ...".

    This module implements that refinement.  Instead of counting
    instances, each dynamic instance contributes its {e masking
    probability} — the fraction of the datum's fault sites whose
    corruption the instance would absorb:

    {ul
    {- a shift by [s] masks the [s] shifted-out bits of a [w]-bit
       integer: weight [s / w];}
    {- an integer truncation to 32 bits masks the high bits: weight
       [32 / 64] per i64 consumed; a float-to-int conversion masks the
       fractional mantissa bits, estimated from the magnitude of the
       value; binary32 rounding masks 29 of 52 mantissa bits;}
    {- a compare with operand margin [m] masks flips that change the
       operand by less than [m]: for a [w]-bit integer, roughly the
       bits below [log2 m]; for floats, the mantissa bits below the
       relative margin;}
    {- truncating prints mask the mantissa bits below the printed
       precision;}
    {- overwrites, dead stores and repeated additions always mask
       fully: weight 1, so these three features are the unweighted
       rates.}} *)

type t = {
  w_condition : float;
  w_shift : float;
  w_truncation : float;
  w_dead_location : float;
  w_repeated_addition : float;
  w_overwrite : float;
}

let to_vector (r : t) : float array =
  [|
    r.w_condition;
    r.w_shift;
    r.w_truncation;
    r.w_dead_location;
    r.w_repeated_addition;
    r.w_overwrite;
  |]

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

(* bits of an integer value's magnitude *)
let bits_of_magnitude (v : float) : float =
  if v <= 1.0 then 0.0 else Float.log v /. Float.log 2.0

(* masking weight of one shift: the shifted-out fraction of a 32-bit
   integer datum *)
let shift_weight (amount : int64) : float =
  clamp01 (Int64.to_float (Int64.logand amount 63L) /. 32.0)

(* masking weight of a comparison: the fraction of low bits of the
   smaller operand that cannot cross the margin *)
let compare_weight ~(is_float : bool) (a : Value.t) (b : Value.t) : float =
  if is_float then begin
    let x = Value.to_float a and y = Value.to_float b in
    if Float.is_nan x || Float.is_nan y then 0.0
    else
      let scale = Float.max (Float.abs x) (Float.abs y) in
      let margin = Float.abs (x -. y) in
      if scale <= 0.0 || margin <= 0.0 then 0.0
      else
        (* mantissa bits whose corruption stays below the margin *)
        clamp01 (bits_of_magnitude (margin /. scale *. 2.0 ** 52.0) /. 52.0)
  end
  else begin
    let margin = Int64.to_float (Int64.abs (Int64.sub a b)) in
    clamp01 (bits_of_magnitude margin /. 32.0)
  end

(* masking weight of a float->int conversion: the fractional mantissa
   bits that are dropped *)
let fptosi_weight (v : Value.t) : float =
  let x = Float.abs (Value.to_float v) in
  if Float.is_nan x then 0.0
  else
    let integer_bits = bits_of_magnitude (Float.max 1.0 x) in
    clamp01 ((52.0 -. integer_bits) /. 52.0)

(* masking weight of a precision-limited print: mantissa bits below the
   printed precision (p significant decimal digits ~ p*3.32 bits) *)
let print_weight (fmt : string) : float =
  let n = String.length fmt in
  let rec prec_of i =
    if i >= n - 1 then None
    else if Char.equal fmt.[i] '%' then begin
      let rec conv j p =
        if j >= n then None
        else
          match fmt.[j] with
          | 'e' | 'f' | 'g' -> p
          | '.' ->
              let rec digits k acc =
                if k < n && fmt.[k] >= '0' && fmt.[k] <= '9' then
                  digits (k + 1) ((acc * 10) + Char.code fmt.[k] - 48)
                else (k, acc)
              in
              let k, d = digits (j + 1) 0 in
              conv k (Some d)
          | '0' .. '9' | '-' | '+' | ' ' -> conv (j + 1) p
          | _ -> prec_of (j + 1)
      in
      match conv (i + 1) None with Some p -> Some p | None -> prec_of (i + 1)
    end
    else prec_of (i + 1)
  in
  match prec_of 0 with
  | None -> 0.0
  | Some digits -> clamp01 ((52.0 -. (float_of_int digits *. 3.322)) /. 52.0)

(** Weighted rates from a fault-free trace.  [rates] are the same
    trace's unweighted rates, whose dead-location, repeated-addition
    and overwrite features each instance masks fully (weight 1). *)
let compute (trace : Trace.t) (rates : Rates.t) : t =
  let total = max 1 (Trace.length trace) in
  let cond = ref 0.0 in
  let shift = ref 0.0 in
  let trunc = ref 0.0 in
  Trace.iter
    (fun (e : Trace.event) ->
      match e.op with
      | Trace.OBin op when Op.bin_is_compare op ->
          if Array.length e.reads = 2 then
            cond :=
              !cond
              +. compare_weight ~is_float:(Op.bin_is_float op)
                   (snd e.reads.(0)) (snd e.reads.(1))
      | Trace.OBin op when Op.bin_is_shift op ->
          if Array.length e.reads = 2 then
            shift := !shift +. shift_weight (snd e.reads.(1))
      | Trace.OUn Op.Trunc32 -> trunc := !trunc +. 0.5
      | Trace.OUn Op.IntOfFloat ->
          if Array.length e.reads = 1 then
            trunc := !trunc +. fptosi_weight (snd e.reads.(0))
      | Trace.OUn Op.F32round -> trunc := !trunc +. (29.0 /. 52.0)
      | Trace.OIntr s
        when String.length s > 6 && String.equal (String.sub s 0 6) "print:" ->
          trunc := !trunc +. print_weight (String.sub s 6 (String.length s - 6))
      | Trace.OConst | Trace.OBin _ | Trace.OUn _ | Trace.OLoad | Trace.OStore
      | Trace.OJmp | Trace.OBr _ | Trace.OCall | Trace.ORet | Trace.OIntr _
      | Trace.OMark _ ->
          ())
    trace;
  let norm x = x /. Float.of_int total in
  {
    w_condition = norm !cond;
    w_shift = norm !shift;
    w_truncation = norm !trunc;
    w_dead_location = rates.Rates.dead_location;
    w_repeated_addition = rates.Rates.repeated_addition;
    w_overwrite = rates.Rates.overwrite;
  }

let pp ppf (r : t) =
  Fmt.pf ppf
    "w_cond=%.4g w_shift=%.4g w_trunc=%.4g w_dead=%.4g w_radd=%.4g w_over=%.4g"
    r.w_condition r.w_shift r.w_truncation r.w_dead_location
    r.w_repeated_addition r.w_overwrite
