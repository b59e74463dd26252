(** Effort presets for the experiment drivers: how many injections per
    target, how many ACL-analyzed injections per region, how many
    simulated ranks, how many timing repetitions. *)

type t = {
  campaign : Campaign.config;
  acl_injections : int;  (** faulty traced runs per region (Table I) *)
  fig4_ranks : int;
  timing_runs : int;     (** repetitions for Table III and Figure 4 times *)
  jobs : int;            (** worker domains per campaign (counts are
                             identical for any value) *)
}

val quick : t
(** Seconds-per-experiment smoke level (40 trials per target). *)

val default : t
(** Minutes for the full suite (120 trials per target). *)

val paper : t
(** The full Leveugle statistical design (95%/3%; 99%/1% where the
    paper uses it), uncapped — hours. *)

val of_string : string -> t
(** "quick" | "default" | "paper".
    @raise Invalid_argument otherwise. *)

val exec : t -> Campaign.exec
(** The campaign-execution knobs this effort implies. *)
