(** Apply [f] to every array element on [jobs] OCaml 5 domains (atomic
    work-stealing counter; results in input order), at most
    [Domain.recommended_domain_count ()] of them.  [jobs <= 1] runs
    inline.  If [f] raised on some element, the first such exception is
    re-raised in the caller after all domains finish. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
