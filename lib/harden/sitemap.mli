(** Composable fault-site maps from a pass's input IR onto its output
    IR, for optimizer and hardening passes alike.

    {b Static maps.}  Per function, an array sending each input pc to
    its index in the rewritten body, or [-1] when the instruction was
    deleted — the arrays {!Rewrite.apply} returns.  Every {!Pass.t}
    returns one, and {!Pass.run_pipeline} composes them, so a whole
    pipeline yields one map from the reference program to the final
    rewritten one.

    {b Dynamic translation.}  Campaign fault sites are dynamic
    sequence numbers, so {!seq_translation} lifts a static map to the
    trace level: because every pass preserves the fault-free execution
    history of the instructions it keeps, the k-th reference execution
    of a surviving pc corresponds to the k-th optimized execution of
    its image, and translation is occurrence counting per
    (function, pc).  A reference seq whose instruction was deleted has
    no image and translates to [None] — the campaign layer turns that
    into a structured refusal ({!Campaign.Untranslatable_site}). *)

type t = (string * int array) list
(** Association list: function name -> pc map ([-1] = deleted). *)

val of_list : (string * int array) list -> t
val identity : Prog.t -> t

val map_pc : t -> fname:string -> pc:int -> int
(** New pc of a reference pc, or [-1] if deleted.  Functions absent
    from the map are treated as untouched. *)

val compose : t -> t -> t
(** [compose first then_]: the map of applying [first], then [then_]. *)

val surviving : t -> int
val deleted : t -> int

val seq_translation :
  Prog.t -> t -> ref_trace:Trace.t -> opt_trace:Trace.t -> int -> int option
(** [seq_translation ref_prog m ~ref_trace ~opt_trace] returns the
    reference-seq -> optimized-seq partial function. *)
