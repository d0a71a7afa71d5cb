(** The paper's five global (centralised) strategies (Sec. 1.3).

    All five are "choose a matching on the known subgraph [G_t] optimising
    a ranked objective list"; each is realised by instantiating the
    tiered-weight matching engine ({!Graph.Tiered}) with the tiers below
    (major to minor; [bias] is the caller-supplied tie-break of
    {!Sched.Strategy.bias}, 0 by default):

    - [fix]:         freeze old assignments; over the rest
                     [new-request count; cardinality; bias].
                     No rescheduling, maximum number of round-[t] arrivals
                     scheduled, otherwise any maximal matching.
    - [current]:     requests × current-round slots only;
                     [cardinality; bias].
    - [fix_balance]: freeze old assignments; over the rest
                     [X_t; X_t+1; …; X_t+d-1; bias] — the paper's
                     balancing function [F = Σ X_t+j (n+1)^(d-j)] is
                     exactly lexicographic maximisation of the per-round
                     matched-slot counts, because each weight
                     [(n+1)^(d-j)] dominates everything after it.
    - [eager]:       full re-solve; [kept; cardinality; X_t; bias] —
                     maximum matching, previously scheduled requests stay
                     scheduled (movable), current-round service count
                     maximised.
    - [balance]:     full re-solve; [kept; cardinality; X_t; …; X_t+d-1;
                     bias].

    Every factory returned here is deterministic given the bias.

    Two interchangeable solvers realise each strategy.  [Kernel] (the
    default) is the warm-start incremental round kernel ({!Kernel}):
    fix-family matchings are carried across rounds and only arrivals
    are solved; the full-reschedule family re-solves on the
    allocation-free {!Graph.Warm} arena.  [Rebuild] is the original
    from-scratch solver, kept as the differential-testing oracle.  For
    any pure bias both produce identical services round for round
    (pinned by the differential suite); [Rebuild] exists to keep that
    claim checkable forever, not for production use.

    When a [metrics] registry is supplied (or ambient at factory-call
    time), the kernel records per step [strategy.kernel_us], its packed
    label width [strategy.label_words] and three counters (see
    {!Kernel.make}): [strategy.augment_searches] (SPFA
    sweeps, one per matching phase), [strategy.augments] (augmenting
    paths flipped; a phase flips many) and [strategy.warm_hits] (the
    augments along a single free edge).  The [Rebuild] solver records
    none of them. *)

type solver = Kernel | Rebuild

val fix :
  ?solver:solver -> ?bias:Sched.Strategy.bias -> ?metrics:Obs.Metrics.t ->
  unit -> Sched.Strategy.factory
val current :
  ?solver:solver -> ?bias:Sched.Strategy.bias -> ?metrics:Obs.Metrics.t ->
  unit -> Sched.Strategy.factory
val fix_balance :
  ?solver:solver -> ?bias:Sched.Strategy.bias -> ?metrics:Obs.Metrics.t ->
  unit -> Sched.Strategy.factory
val eager :
  ?solver:solver -> ?bias:Sched.Strategy.bias -> ?metrics:Obs.Metrics.t ->
  unit -> Sched.Strategy.factory
val balance :
  ?solver:solver -> ?bias:Sched.Strategy.bias -> ?metrics:Obs.Metrics.t ->
  unit -> Sched.Strategy.factory

val remax :
  ?solver:solver -> ?bias:Sched.Strategy.bias -> ?metrics:Obs.Metrics.t ->
  unit -> Sched.Strategy.factory
(** Ablation, not in the paper: [A_eager] {e without} rule (2) — a fresh
    maximum matching every round with the current-round count maximised,
    free to silently unschedule previously planned requests.  The
    ablation bench uses it to quantify what the "previously scheduled
    requests remain scheduled" rule buys. *)

val all : (string * (?bias:Sched.Strategy.bias -> unit -> Sched.Strategy.factory)) list
(** The five strategies with their paper names
    (["A_fix"; "A_current"; "A_fix_balance"; "A_eager"; "A_balance"]);
    the {!remax} ablation is not included. *)
