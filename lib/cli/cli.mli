(** Command-line terms shared by the [reqsched] subcommands and the
    bench harness.

    Each option that more than one subcommand or executable takes is
    declared here once, so its name, default and help read the same
    everywhere.  Actions return [(unit, string) result], which
    [Term.term_result'] turns into cmdliner's CLI-error exit. *)

open Cmdliner

(** {2 Workloads} *)

val n : int Term.t
(** [-n/--resources N], default 8. *)

val d : int Term.t
(** [-d/--deadline D], default 4. *)

val seed : int Term.t
(** [--seed SEED], default 1. *)

val workload_name : string Term.t
(** [-w/--workload W], default [uniform]; the help lists
    {!Report.Registry.workload_names}. *)

val rounds : int Term.t
(** [--rounds ROUNDS], default 100. *)

type workload = {
  name : string;
  n : int;
  d : int;
  rounds : int;
  load : float;
  seed : int;
}

val workload : workload Term.t
(** The workload group: [-w -n -d --rounds --load --seed]. *)

val instance : workload -> (Sched.Instance.t, string) result
(** {!Report.Registry.instance_of_workload} on the group's values. *)

(** {2 Strategies} *)

val solver : Strategies.Global.solver Term.t
(** [--solver SOLVER], default [kernel]; parsed through
    {!Report.Registry.solver_of_name}. *)

type strategy = { strategy : string; solver : Strategies.Global.solver }

val strategy : strategy Term.t
(** [-s/--strategy S] (default [balance]) and {!solver}. *)

val factory :
  ?metrics:Obs.Metrics.t -> seed:int -> strategy ->
  (Sched.Strategy.factory, string) result
(** {!Report.Registry.factory_of_name} with the chosen solver. *)

val score : Analysis.Slo.selector option Term.t
(** [--score MODE], parsed through {!Analysis.Slo.selector_of_name}. *)

(** {2 Metrics} *)

type metrics

val metrics : metrics Term.t
(** [--metrics FMT] (text, csv or json; absent = no registry) and
    [--metrics-out FILE]. *)

val with_metrics :
  metrics -> (Obs.Metrics.t option -> (unit, string) result) ->
  (unit, string) result
(** With [--metrics], install a fresh ambient registry around [k], pass
    it to [k] too (for callers the ambient fallback does not reach), and
    export its snapshot when [k] succeeds.  Without, [k None]. *)

(** {2 Experiment jobs} *)

val jobs : int option Term.t
(** [--jobs N]: worker domains for {!Obs.Instrument.jobs}.  [N] outside
    [1 .. Prelude.Parmap.max_domains] is a usage error, so no domain is
    ever asked of a runtime that cannot start it. *)

val catch_job_failure :
  (unit -> ('a, string) result) -> ('a, string) result
(** Run [k] with backtraces recorded; a {!Obs.Instrument.Job_failed}
    escaping it becomes [Error] naming the family, the job and the
    exception, followed by the backtrace from the job's raise point. *)

(** {2 Experiment selection} *)

val quick : bool Term.t
(** [--quick]: small parameters. *)

val only : string option Term.t
(** [--only ID]: an id prefix for {!select}.  A missing value is a
    usage error. *)

val select : string -> (string * 'a) list -> ((string * 'a) list, string) result
(** [select p entries] keeps the entries whose id equals [p] or starts
    with [p ^ "."] — whole dot-separated segments, so [T1.fix] selects
    [T1.fix.lb] but not [T1.fixbal.lb].  No match is an [Error] listing
    every known id. *)
