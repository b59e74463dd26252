(** Cross-structure fault campaigns: the same application injected
    through every microarchitectural surface — register file (the
    historical default), cache metadata, cache data, and the
    instruction store — under one seed, one trial count, and one cache
    geometry, so the per-structure SDC/crash/recovery profiles are
    directly comparable.

    All cells of one report share the baked program and the fault-free
    traced run; each cell's trial [i] draws from
    [Rng.derive ~seed ~index:i], so counts are a pure function of
    (app, seed, trials, structure, geometry) — identical across
    [--jobs] values, backends, and resumes. *)

type cell = {
  ac_structure : Structure.t;
  ac_population : int;  (** fault-site population of the surface *)
  ac_counts : Campaign.counts;
}

type report = {
  ar_app : string;
  ar_seed : int;
  ar_trials : int;  (** trial cap per cell *)
  ar_geometry : Cache_model.geometry;  (** of the cache cells *)
  ar_clean_instructions : int;
  ar_cells : cell list;
}

val evaluate :
  ?seed:int ->
  ?trials:int ->
  ?structures:Structure.t list ->
  ?geom:Cache_model.geometry ->
  ?backend:Backend.t ->
  ?jobs:int ->
  App.t ->
  report
(** Run one campaign per structure (default: {!Structure.all}, 150
    trials each, the default cache geometry).  Cache-fault trials run
    on the interpreter regardless of [backend] (the compiled backend
    reports them unsupported and falls back); istore trials re-bake the
    mutated program and run it on [backend].
    @raise Invalid_argument if the app's fault-free run does not
    finish. *)

val find_cell : report -> Structure.t -> cell option

val pp_report : Format.formatter -> report -> unit
(** One row per structure: population, counts, and rates. *)

val to_csv : report -> string
