(** The deterministic fuzz loop and the corpus replay driver.

    Case [i] of root seed [s] is [Gen.case (Util.Rng.derive s i)] — a
    pure function of [(s, i)], so any case the fuzzer ever saw can be
    re-materialized without replaying the stream before it. Everything
    printed to the [log] formatter is likewise a pure function of the
    cases examined (the time box and throughput summary go to [stderr]),
    so two runs with the same seed produce byte-identical logs whenever
    they examine a prefix of the same stream with the same verdicts —
    in particular, always, when no failures occur. *)

type config = {
  seed : int;
  seconds : float;  (** wall-clock box; [0.] means no time limit *)
  iters : int;  (** max cases to try; [0] means no count limit *)
  params : Gen.params;
  corpus_dir : string option;  (** append shrunk failures here *)
  extra : (string * Oracle.solver_fn) list;
      (** extra solvers for the differential matrix (fault injection) *)
}

val default : config
(** seed 42, 30 s, no iteration cap, {!Gen.default}, no corpus, no
    extras. *)

type outcome = {
  cases : int;
  failures : int;
  skips : int;
  added : string list;  (** corpus paths appended this run *)
}

val run : ?log:Format.formatter -> config -> outcome
(** Generate, check, shrink, persist. Each failure is minimized with
    {!Shrink.minimize} against the same oracle (exact checks only) and
    logged with the exact [hardq_qa replay] command that reproduces
    it. *)

val replay :
  ?log:Format.formatter ->
  ?extra:(string * Oracle.solver_fn) list ->
  string ->
  outcome
(** [replay path] re-checks one [.case] file, or every [.case] file
    under a directory. Each verdict prints one line: [ok <file>
    answer=<v> checks=<n>] where [<v>] is the exact serving-layer JSON
    rendering of the Boolean answer ({!Server.Json}), [skip <file> —
    <reason>], or a [FAIL] record. Unparseable files count as
    failures. *)

val anytime_diff : ?log:Format.formatter -> string -> outcome
(** [anytime_diff path] runs {!Oracle.anytime} — the anytime serving
    sweep (CI containment, monotone widths, cross-pool and prefix
    frame-byte determinism) — over one [.case] file or a directory of
    them, with the same per-file verdict lines as {!replay}. *)

val shard_diff : ?log:Format.formatter -> string -> outcome
(** [shard_diff path] runs {!Oracle.shard_diff} — the sharded
    scatter-gather byte-identity sweep at shard counts 1, 2 and 4, with
    the two-phase top-k prune-soundness asserts — over one [.case] file
    or a directory of them, with the same per-file verdict lines as
    {!replay}. *)

val lang_diff : ?log:Format.formatter -> string -> outcome
(** [lang_diff path] runs {!Oracle.lang_diff} — the query-language
    frontend and planner differential sweep — over one [.case] file or
    a directory of them, then asserts that the corpus as a whole routed
    at least one query to every plan node kind ([exact], [union-ie],
    [sample], [aggregate], [top-k]); each missing kind counts as one
    failure in the outcome. *)
