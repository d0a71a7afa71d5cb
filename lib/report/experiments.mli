(** The reproduction experiments: one per table/figure claim of the
    paper (see DESIGN.md §3 for the index).  Every experiment returns a
    rendered table plus named pass/fail checks; the test suite runs them
    in [quick] mode and asserts every check, the benchmark executable
    runs them full-size and prints the tables that EXPERIMENTS.md
    records.

    Every family enumerates its cases as named jobs and runs them
    through {!Obs.Instrument.jobs} on up to [domains] domains (default
    {!Prelude.Parmap.recommended_domains}); the rendered output is
    byte-identical at any domain count.  A job that raises fails the
    whole experiment with {!Obs.Instrument.Job_failed}, naming its
    family and job. *)

type t = {
  id : string;                     (** experiment id, e.g. "T1.fix.lb" *)
  title : string;
  table : Prelude.Texttable.t;
  checks : (string * bool) list;   (** named assertions, all expected true *)
}

val t1_fix_lb : ?domains:int -> quick:bool -> unit -> t
(** Table 1 row 1, lower bound (Thm 2.1): A_fix vs its adversary,
    measured per-phase ratio must equal [2 - 1/d] exactly. *)

val t1_current_lb : ?domains:int -> quick:bool -> unit -> t
(** Table 1 row 2, lower bound (Thm 2.2): A_current, ratio growing
    toward [e/(e-1)]. *)

val t1_fixbal_lb : ?domains:int -> quick:bool -> unit -> t
(** Table 1 row 3, lower bound (Thms 2.3/2.4). *)

val t1_eager_lb : ?domains:int -> quick:bool -> unit -> t
(** Table 1 row 4, lower bound (Thm 2.4): exactly 4/3, every even d. *)

val t1_bal_lb : ?domains:int -> quick:bool -> unit -> t
(** Table 1 row 5, lower bound (Thm 2.5): trend toward
    [(5d+2)/(4d+1)] as the group count grows. *)

val t1_any_lb : ?domains:int -> quick:bool -> unit -> t
(** Table 1 row 6 (Thm 2.6): the adaptive adversary versus every global
    strategy; measured ratio at least the finite-d bound. *)

val t1_upper_bounds : ?domains:int -> quick:bool -> unit -> t
(** Table 1 upper bounds (Thms 3.3-3.6): worst measured ratio of each
    strategy across the full adversarial + random battery stays within
    its bound; plus the structural audits (no augmenting path of order 1
    for the maximal strategies, none of order <= 2 for
    A_eager/A_balance). *)

val table1_summary : ?domains:int -> quick:bool -> unit -> t
(** Table 1 at canonical parameters, one row per bound — the golden
    snapshot family, built from the per-family jobs; the rendered
    [--quick] form is pinned byte-for-byte by
    [test/golden_table1_quick.txt]. *)

val edf_baselines : ?domains:int -> quick:bool -> unit -> t
(** Observations 3.1/3.2: EDF exactly 1-competitive with one
    alternative; exactly c-competitive on the tight c-alternative
    example; at most 2 on random two-choice workloads. *)

val local_strategies : ?domains:int -> quick:bool -> unit -> t
(** Theorems 3.7/3.8: A_local_fix exactly 2-competitive in 2
    communication rounds on its adversary; A_local_eager within 5/3 and
    9 communication rounds across the battery. *)

val series_ratio_vs_d : ?domains:int -> quick:bool -> unit -> t
(** Derived figure: worst measured ratio per strategy as d grows —
    the "shape" of Table 1. *)

val series_average_case : ?domains:int -> quick:bool -> unit -> t
(** Derived figure: average-case ratios under uniform / Zipf / bursty
    arrivals across loads — the paper's "worst case may be
    unrealistically pessimistic" remark, quantified. *)

val ablation_bias : ?domains:int -> quick:bool -> unit -> t
(** Ablation: each lower-bound adversary replayed with its adversarial
    tie-break, a neutral tie-break and a randomised one — the
    existential nature of the lower bounds made visible (randomisation
    defeats the deterministic constructions, cf. the RANKING discussion
    in the paper's related work). *)

val ablation_keep : ?domains:int -> quick:bool -> unit -> t
(** Ablation: [A_eager] versus [A_remax] (the same strategy without the
    "previously scheduled requests remain scheduled" rule) across the
    battery — what rule (2) of the eager/balance definitions buys. *)

val power_of_choices : ?domains:int -> quick:bool -> unit -> t
(** Extension: the same traffic restricted to its first [c] alternatives
    for [c = 1..4] — the balls-into-bins "power of two choices" story
    that motivates the model, measured on the scheduling problem. *)

val greedy_baselines : ?domains:int -> quick:bool -> unit -> t
(** Extension: the balls-into-bins greedy heuristics (least-loaded of
    two choices, random choice, first fit) against the matching-based
    strategies — loss and mean service latency under load.  Quantifies
    what the paper's matching machinery buys over the O(1) folklore. *)

val loss_robustness : ?domains:int -> quick:bool -> unit -> t
(** Ablation/failure injection: the local protocols under message loss.
    Drops are treated as mailbox bounces, so the protocols stay
    consistent at any loss rate and degrade gracefully; the experiment
    charts accepted requests against the drop probability. *)

val placement_policies : ?domains:int -> quick:bool -> unit -> t
(** Extension: the application layer the paper's introduction sketches —
    a replicated catalogue under continuous-media session traffic
    ([MBLR97]-style), with random ([Kor97]), chained and striped replica
    placements compared through the same scheduler.  Random duplicated
    assignment decorrelates hot items' alternatives, which is exactly
    why the two-choice model has freedom to balance. *)

val mixed_deadlines : ?domains:int -> quick:bool -> unit -> t
(** Extension the paper notes after Observations 3.1/3.2: per-request
    deadlines.  EDF stays exactly 1-competitive with one alternative,
    and all strategies handle heterogeneous windows. *)

val catalog : (string * (?domains:int -> quick:bool -> unit -> t)) list
(** Experiment ids with their (unevaluated) runners, in report order. *)

val render : t -> string
(** Table plus a PASS/FAIL line per check. *)
