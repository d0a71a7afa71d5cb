(** Shared machinery for the reproduction experiments. *)

type run = {
  outcome : Sched.Outcome.t;
  opt : int;
  ratio : float;
}

val run_scenario : Adversary.Scenario.t -> Sched.Strategy.factory -> run
(** Run and compute the exact optimum ({!Offline.Opt.value}); when the
    scenario carries an [opt_hint] it is checked against the computed
    optimum and a mismatch raises [Failure] — the adversary constructions
    are exact, so disagreement means a bug. *)

val run_instance :
  ?metrics:Obs.Metrics.t -> Sched.Instance.t -> Sched.Strategy.factory ->
  run
(** With a registry (explicit or ambient) the engine records its
    per-round metrics.  The optimum is always {!Offline.Opt.value}:
    metrics observe the run, they never pick the algorithm that computes
    what is measured.  [ratio] is {!Analysis.Slo.ratio_of}; the
    anytime ratio comes from {!Analysis.Slo.score_stream}. *)

val asymptotic_ratio :
  make:(int -> Adversary.Scenario.t) ->
  factory:(Adversary.Scenario.t -> Sched.Strategy.factory) ->
  k:int -> float
(** The doubling-difference estimator of the limiting competitive ratio:
    run at [k] and [2k] phases and return
    [(opt_2k - opt_k) / (alg_2k - alg_k)] — the additive constant
    [α] of the competitive definition cancels exactly, so for the
    periodic adversary constructions this is the {e exact} per-phase
    ratio. *)

val asymptotic_ratio_exact :
  make:(int -> Adversary.Scenario.t) ->
  factory:(Adversary.Scenario.t -> Sched.Strategy.factory) ->
  k:int -> Prelude.Rat.t
(** As {!asymptotic_ratio}, as an exact rational. *)

val rat_cell : Prelude.Rat.t -> string
(** ["45/41 (1.0976)"]. *)

val float_cell : float -> string
