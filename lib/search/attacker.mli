(** Guided randomized attacker for configurations beyond the exhaustive
    tier — and, at the same time, the kernel/rebuild differential
    fuzzer.

    The attacker hill-climbs over {e phase constructions} shaped like
    the paper's Section-2 adversaries (thm21–thm25): a genome is a
    prelude block plus a periodic phase block of request genes (offset
    within the period, alternative set, multiplicity, bias tag), all
    with the uniform deadline [d].  A genome is scored by realising it
    with [P] and [2P] phases and taking the exact per-phase rate
    [(opt_2P − opt_P) / (alg_2P − alg_P)] — the amortised per-phase
    ratio that survives phase repetition, so a good genome certifies an
    asymptotic construction rather than a one-off end effect.

    Every genome evaluation runs both interchangeable solvers through
    {!Game.evaluate_instance}; with the default budgets a single run
    differentially checks hundreds of instances, which is the
    fuzz-differential tier of the test-suite.  Restarts are independent
    and fan out as {!Obs.Instrument.jobs} (family ["search.attacker"]). *)

type config = {
  n : int;
  d : int;
  seed : int;
  restarts : int;   (** independent hill-climbs (one job each) *)
  evals : int;      (** genome evaluations per restart *)
  phases : int;     (** P: score compares P against 2P repetitions *)
  max_genes : int;  (** phase-block size cap *)
}

val config :
  ?seed:int -> ?restarts:int -> ?evals:int -> ?phases:int ->
  ?max_genes:int -> n:int -> d:int -> unit -> config
(** Defaults: [seed = 1], [restarts = 8], [evals = 60], [phases = 2],
    [max_genes = 6]. *)

type result = {
  strategy : Game.strategy;
  cfg : config;
  best_rate : Prelude.Rat.t;
      (** best per-phase rate over all restarts *)
  certificate : Certificate.t;
      (** the best genome's [2P] instance with its verified overall
          OPT/ALG claims (the committable artefact; its overall ratio
          is diluted by the prelude, [best_rate] is the per-phase
          signal) *)
  instances : int;  (** instances differentially checked *)
  evals : int;      (** genome evaluations actually performed *)
  disagreements : Certificate.t list;
      (** repro certificates for every kernel/rebuild mismatch *)
}

val run :
  ?metrics:Obs.Metrics.t -> ?domains:int ->
  strategy:Game.strategy -> config -> result
(** Attack one strategy, its restarts on up to [domains] domains;
    outcomes are deterministic for a given config regardless of the
    domain count.  Records [search.attacker_instances] and
    [search.attacker_accepts].
    @raise Obs.Instrument.Job_failed if a restart raises.
    @raise Failure if no restart's best genome served a request, so
    there is no certificate to report. *)
