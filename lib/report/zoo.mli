(** The workload-zoo experiment family: every strategy scored on every
    production-shaped workload ({!Workload.Zoo}) with the SLO
    objectives of {!Analysis.Slo} plus the anytime competitive ratio —
    the repo's first non-adversarial evaluation axis.

    One job per (workload family × strategy), run through {!Jobs} like
    every other family, so the zoo shares the domain pool, cache and
    [--resume] with the rest of the battery.  The quick tier is pinned
    byte-for-byte by [test/golden_zoo_quick.txt]. *)

val strategies : string list
(** The strategies the zoo sweeps: the five globals, both EDF variants
    and the two-choice greedy — every deterministic strategy with a
    live-engine implementation (8 of them). *)

val encode_scores : Analysis.Slo.scores -> Jobs.value list
(** The nine score fields as a cached job value's leading elements, in
    record order — the one encoding behind the zoo's cells and the
    sweep's. *)

val decode_scores : Jobs.outcome -> Analysis.Slo.scores
(** Inverse of {!encode_scores} on a [Done (List _)] outcome whose first
    nine elements it wrote. *)

val summary : ctx:Jobs.ctx -> quick:bool -> Experiments.t
(** The zoo table: one row per (workload × strategy) with
    served/submitted, violation rate, throughput, ANTT, max delay
    factor, machines-needed, anytime ratio and final ratio; one
    well-formedness check per row (conservation, metric ranges,
    [anytime >= final >= 1]). *)

val catalog : (string * (ctx:Jobs.ctx -> quick:bool -> Experiments.t)) list
(** [[("Z.zoo", summary)]] — appended to {!Experiments.catalog} by the
    CLI and the test-suite. *)
