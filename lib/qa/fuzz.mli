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

val required_kinds : string list
(** The plan node kinds a regression corpus must route at least one
    passing case to: [exact], [union-ie], [sample], [aggregate],
    [top-k], and {!Oracle.rim_matching} (an IE term of a general-kind
    union solved by RIM matching). *)

val replay :
  ?log:Format.formatter ->
  ?extra:(string * Oracle.solver_fn) list ->
  ?require_kinds:string list ->
  string ->
  outcome
(** [replay path] re-checks one [.case] file, or every [.case] file
    under a directory, with {!Oracle.check} — the same oracle the fuzz
    loop runs. Each verdict prints one line: [ok <file> answer=<v>
    checks=<n>] where [<v>] is the exact serving-layer JSON rendering of
    the Boolean answer ({!Server.Json}), [skip <file> — <reason>], or a
    [FAIL] record. Unparseable files count as failures, and so does each
    of [require_kinds] (default none) that no passing case routed a
    plan to ({!Oracle.report.kinds}). *)
