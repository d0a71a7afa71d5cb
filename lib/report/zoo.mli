(** The workload-zoo experiment family: every strategy scored on every
    production-shaped workload ({!Workload.Zoo}) with the SLO
    objectives of {!Analysis.Slo} plus the anytime competitive ratio —
    the repo's first non-adversarial evaluation axis.

    One job per (workload family × strategy), run through
    {!Obs.Instrument.jobs} like every other family.  The quick tier is
    pinned byte-for-byte by [test/golden_zoo_quick.txt]. *)

val strategies : string list
(** The strategies the zoo sweeps: the five globals, both EDF variants
    and the two-choice greedy — every deterministic strategy with a
    live-engine implementation (8 of them). *)

val summary : ?domains:int -> quick:bool -> unit -> Experiments.t
(** The zoo table: one row per (workload × strategy) with
    served/submitted, violation rate, throughput, ANTT, max delay
    factor, machines-needed, anytime ratio and final ratio; one
    well-formedness check per row (conservation, metric ranges,
    [anytime >= final >= 1]). *)

val catalog :
  (string * (?domains:int -> quick:bool -> unit -> Experiments.t)) list
(** [[("Z.zoo", summary)]] — appended to {!Experiments.catalog} by the
    CLI and the test-suite. *)
