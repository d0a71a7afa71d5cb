(** Name-indexed strategy and workload factories.

    The [reqsched] CLI (and any harness code that takes strategy or
    workload names) resolves them here, so the name → factory mapping is
    testable without spawning the executable.  Every randomised piece is
    derived from the one integer [seed]: the workload generator consumes
    the seed's stream directly, while randomised strategies
    ([greedy_random]) take a {!Prelude.Rng.split} of it, so strategy
    coins and workload coins are independent yet both reproducible. *)

val strategy_names : string list
(** Every name {!factory_of_name} accepts, in display order. *)

val factory_of_name :
  seed:int -> ?metrics:Obs.Metrics.t -> string ->
  (Sched.Strategy.factory, string) result
(** [seed] drives randomised strategies (currently [greedy_random]) —
    distinct seeds give distinct coin streams.  [metrics] is forwarded
    to factories with an instrumented substrate (the local strategies'
    {!Distnet.Net} and the global strategies' kernel).  The global
    strategies run their production kernel; the from-scratch oracle is
    reached through {!Strategies.Global.make}'s [?solver] only. *)

val instance_of_workload :
  name:string -> n:int -> d:int -> rounds:int -> load:float -> seed:int ->
  (Sched.Instance.t, string) result
(** [uniform], [zipf], [bursty] generate from the size parameters and
    [seed]; theorem adversaries ([thm21] …) fix their own scenario and
    use [d] and [rounds] only to size it; the zoo families
    ({!Workload.Zoo.names}: [hotspot], [diurnal], [vod], [overload],
    [mix]) generate from all of them with per-round keyed seeding.
    A value a generator refuses ([n < 1], [d] too small for a theorem,
    a NaN load, …) is an [Error] carrying the generator's message. *)

val workload_names : string list
(** Every name {!instance_of_workload} accepts, in display order
    (stochastic, theorem adversaries, then the zoo families). *)
