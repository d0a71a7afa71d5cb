(** Warm-start incremental round kernel for {!Global}'s strategies.

    Produces the same services, round for round, as the from-scratch
    solver kept in [global.ml] behind [~solver:Rebuild] (the
    differential suite pins the equality on random instances, the
    theorem adversaries, adaptive runs and the live engine), while
    doing per-round work proportional to what changed:

    - fix family — the carried matching lives in a {!Sched.Slots}
      table [d] rounds deep (exact, as every window fits in [d]
      rounds); each round solves only the round's arrivals against the
      still-free slots.  Dropping the requests a round leaves unmatched
      is exact because every fix-family weight vector is
      lexicographically positive: an unmatched request adjacent to a
      free slot would be a one-edge positive augmenting path, so after
      a solve (which ends on an optimum) none exists; frozen slots
      never free up early, and with [deadline <= d] no new slot column
      ever enters an arrived request's window.  In the rebuild solver
      the dropped requests are isolated left vertices, which no phase
      of {!Graph.Tiered} touches.
    - full family / current — same subproblem as the rebuild (the
      from-empty re-solve {e is} the strategy), but over an id-ordered
      struct-of-arrays pool with expiry folded into the build pass and
      the allocation-free {!Graph.Warm} arena instead of
      Bipartite + Lexvec.

    Equality with the rebuild solver assumes a pure [bias] (both paths
    call it once per edge, in different orders).

    The kernel assumes the {!Sched.Strategy.t} step contract that
    {!Sched.Engine.Live} enforces: rounds advance by one, and each
    round's arrivals have [arrival = round], [1 <= deadline <= d] and
    ascending ids. *)

type kind = Fix | Current | Fix_balance | Eager | Balance | Remax

val kind_name : kind -> string
(** Paper names: ["A_fix"], ["A_current"], ["A_fix_balance"],
    ["A_eager"], ["A_balance"]; the ablation is ["A_remax"]. *)

val make :
  kind:kind ->
  n:int ->
  d:int ->
  bias:Sched.Strategy.bias ->
  metrics:Obs.Metrics.t option ->
  unit ->
  Sched.Strategy.t
(** One kernel instance (strategy state is per-instance).  When
    [metrics] is present, each step
    records [strategy.kernel_us] (histogram, µs per round), the
    histogram [strategy.label_words] (the solve's packed label width,
    {!Graph.Warm.stats}[.words]) and counts, from {!Graph.Warm.stats}:
    - [strategy.augment_searches]: SPFA sweeps, one per phase of the
      solve (the last phase of each solve finds no positive gain);
    - [strategy.augments]: augmenting paths flipped — one phase flips
      many, so this is the matching growth, not the search effort;
    - [strategy.warm_hits]: the augments along a single free edge, with
      no already-placed request moved (so never more than
      [strategy.augments]). *)
