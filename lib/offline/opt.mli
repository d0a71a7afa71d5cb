(** Offline optimum: the benchmark every competitive ratio divides by.

    The optimum number of servable requests equals the size of a maximum
    matching in the paper's graph [G] ({!Sched.Paper_graph}), computed
    by Hopcroft–Karp on the one-node-per-request graph — the one
    whole-instance route, whether or not metrics are on (a Dinic
    max-flow over grouped identical requests measured 2–5.5x slower on
    random and zoo instances; EXPERIMENTS.md).  The tests cross-check it
    against the final value of {!Opt_stream}'s independent incremental
    matching, with König certificates, and against the EDF oracle
    below.

    For the per-round OPT {e prefix curve} of a long or streaming
    workload, use {!Opt_stream} — one incremental pass instead of
    [horizon] full recomputes.

    {!single_alternative_edf} solves the restricted one-alternative model
    greedily, giving an independent oracle for Observation 3.1 tests. *)

val expanded : Sched.Instance.t -> int
(** Maximum matching size of [G] by Hopcroft–Karp. *)

val expanded_matching :
  Sched.Instance.t -> Graph.Bipartite.t * Graph.Matching.t
(** The graph [G] and one maximum matching in it (for alternating-path
    analysis against an online outcome). *)

val value : Sched.Instance.t -> int
(** The offline optimum: {!expanded}. *)

val single_alternative_edf : Sched.Instance.t -> int
(** Greedy earliest-deadline-first optimum for instances in which every
    request has exactly one alternative.
    @raise Invalid_argument if some request has more than one. *)
