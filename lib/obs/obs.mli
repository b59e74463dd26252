(** Lightweight in-process observability: named phase timers, counters,
    and log2-bucketed histograms with a fixed-width text report.
    Thread-safe; rendering preserves first-use order.  Timers read a
    monotonic clock. *)

type t

val create : unit -> t

val now : unit -> float
(** Seconds on the monotonic clock the phase timers use (arbitrary
    origin; only differences are meaningful). *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] runs [f], accumulating its wall time and call
    count under [name]; the sample is recorded even if [f] raises. *)

val add_sample : t -> string -> float -> unit
(** Record an externally measured wall-time sample for a phase. *)

val count : t -> string -> int -> unit
(** [count t name n] adds [n] to counter [name] (created at 0). *)

val observe : t -> string -> int -> unit
(** Record one sample of a distribution (bytes, events, latencies…)
    into histogram [name]. *)

val phase_wall : t -> string -> float option
val counter_value : t -> string -> int option

val counters : t -> (string * int) list
(** All counters in first-use order (for structured reporting). *)

val hist_stats : t -> string -> (int * float * int * int) option
(** [(count, sum, min, max)] of a histogram, if it exists. *)

val report : t -> string
(** Phase table (wall seconds, share, calls), counters with rates, and
    histogram summaries with a log2-bucket sparkline. *)

val is_empty : t -> bool
