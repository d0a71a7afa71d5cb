(** Competitive-ratio accounting: compare an online outcome with the
    exact offline optimum of the same instance. *)

type t = {
  opt : int;            (** offline optimum (maximum matching in [G]) *)
  alg : int;            (** requests the online strategy served *)
  total : int;          (** requests in the instance *)
  ratio : float;        (** [opt / alg] ([nan] when both are zero) *)
}

val of_outcome : Sched.Outcome.t -> t
(** Computes the optimum via {!Offline.Opt.value} (Hopcroft–Karp). *)

val of_outcome_with_opt : Sched.Outcome.t -> opt:int -> t
(** When the optimum is already known (e.g. an adversary's analytic
    value, or a shared computation across strategies). *)

val anytime_curve : Sched.Outcome.t -> t array
(** Per-round competitive accounting over the whole run, one element per
    round of the instance's horizon: element [r] compares the streaming
    OPT prefix through round [r] ({!Offline.Opt_stream.prefix_curve} —
    what an offline scheduler could have served by then) with the
    requests the strategy had served by round [r].  [total] counts the
    requests revealed so far.  Computed in one incremental pass, not
    [horizon] optimum solves. *)

val exact : t -> Prelude.Rat.t
(** [opt / alg] as an exact rational.
    @raise Division_by_zero when [alg = 0]. *)

val pp : Format.formatter -> t -> unit
