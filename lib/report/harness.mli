(** Shared machinery for the reproduction experiments. *)

type run = {
  outcome : Sched.Outcome.t;
  opt : int;
  ratio : float;
}

val ratio_of : opt:int -> served:int -> float
(** The competitive ratio [opt / served] with the degenerate cases made
    explicit: [1.0] when both are zero (vacuously competitive),
    [infinity] when the algorithm served nothing against a positive
    optimum.  Every ratio the reports print goes through this — a naive
    [opt /. max 1 served] silently reports [opt] itself for a strategy
    that served nothing. *)

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
    what is measured.  {!run_instance_anytime} is the entry point that
    profiles the streaming tracker ([opt_stream.*]). *)

type anytime = {
  run : run;
  opt_curve : int array;   (** streaming OPT prefix per round *)
  alg_curve : int array;   (** cumulative requests served per round *)
  ratio_curve : float array;
      (** [opt_curve.(r) / alg_curve.(r)]; [1.0] when both are zero,
          [infinity] when only the algorithm is at zero *)
}

val run_instance_anytime :
  ?metrics:Obs.Metrics.t -> Sched.Instance.t -> Sched.Strategy.factory ->
  anytime
(** Like {!run_instance} but with anytime competitive monitoring: the
    final optimum and the whole per-round curve come from one streaming
    pass ({!Offline.Opt_stream.prefix_curve}) instead of per-round full
    recomputes, so long workloads can be monitored at every round for
    roughly the cost of the final solve. *)

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

val parmap :
  ?metrics:Obs.Metrics.t -> ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!Prelude.Parmap.map} with domain-utilisation metrics
    ({!Obs.Instrument.parmap_map}); the experiment fan-outs use this so
    [parmap.*] counters appear whenever a registry is ambient. *)

val rat_cell : Prelude.Rat.t -> string
(** ["45/41 (1.0976)"]. *)

val float_cell : float -> string
