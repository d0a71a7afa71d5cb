(** Shared machinery for the reproduction experiments. *)

type run = {
  outcome : Sched.Outcome.t;
  opt : int;              (** offline optimum of the whole instance *)
  ratio : float;          (** OPT / served, guarded as {!Analysis.Slo.ratio_of} *)
  anytime_ratio : float;
      (** worst prefix ratio over the rounds (1 on an empty horizon) *)
  scores : Analysis.Slo.scores;  (** fed by the run's own events *)
}
(** A scored run: the one place a strategy's run meets the optimum. *)

val optimum : ?metrics:Obs.Metrics.t -> Sched.Instance.t -> int array
(** The instance's OPT prefix curve ({!Offline.Opt_stream.prefix_curve}),
    computed once and shared by every strategy scored on it. *)

val score :
  ?metrics:Obs.Metrics.t -> curve:int array -> Sched.Instance.t ->
  Sched.Strategy.factory -> run
(** One pass: {!Sched.Engine.run} with an observer that feeds the
    streaming {!Analysis.Slo} accumulator and tracks the anytime ratio
    against [curve], the instance's {!optimum}.  A registry (explicit or
    ambient) receives the engine's per-round metrics. *)

val run_instance :
  ?metrics:Obs.Metrics.t -> Sched.Instance.t -> Sched.Strategy.factory ->
  run
(** {!score} against a fresh {!optimum}. *)

val run_scenario : Adversary.Scenario.t -> Sched.Strategy.factory -> run
(** {!run_instance}; when the scenario carries an [opt_hint] it is
    checked against the computed optimum and a mismatch raises [Failure]
    — the adversary constructions are exact, so disagreement means a
    bug. *)

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
