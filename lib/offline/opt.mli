(** Offline optimum: the benchmark every competitive ratio divides by.

    The optimum number of servable requests equals the size of a maximum
    matching in the paper's graph [G] ({!Sched.Paper_graph}).
    {!value} is the final value of {!Opt_stream}'s incremental fold: one
    pass over the rounds that holds only the open window, so its memory
    follows the window and not the run.  It is the one production route
    to the optimum.

    {!expanded} solves the whole graph by Hopcroft–Karp.  It is the
    oracle: the tests pin {!value} to it on random and named instances,
    with König certificates, and {!Analysis.Audit} uses its matching
    for the alternating-path census.  {!single_alternative_edf} solves
    the one-alternative model greedily, an independent oracle for
    Observation 3.1 tests. *)

val expanded : Sched.Instance.t -> int
(** Maximum matching size of [G] by Hopcroft–Karp over the whole
    instance (the oracle). *)

val expanded_matching :
  Sched.Instance.t -> Graph.Bipartite.t * Graph.Matching.t
(** The graph [G] and one maximum matching in it (for alternating-path
    analysis against an online outcome). *)

val value : Sched.Instance.t -> int
(** The offline optimum: {!final} of {!Opt_stream.prefix_curve}; equal
    to {!expanded}. *)

val final : int array -> int
(** The optimum a prefix curve ends at: its last value, 0 on an empty
    horizon. *)

val single_alternative_edf : Sched.Instance.t -> int
(** Greedy earliest-deadline-first optimum for instances in which every
    request has exactly one alternative.
    @raise Invalid_argument if some request has more than one. *)
