(** The worst-case game: adversary states and their exact evaluation.

    The search plays the adversary side of the competitive game: each
    move injects a multiset of request types into a round, ALG's reply
    is the deployed strategy itself (the production kernel solver, bias
    tier included) and the score of a state is the exact rational
    OPT/ALG of the realised instance, with OPT from
    {!Offline.Opt_stream}.

    {b Drain-point decomposition.}  A state is only ever extended up to
    its {e drain round} — the first round by which every injected
    window has closed.  At a drain the strategy state is empty and the
    strategies are time-shift invariant, so play after a drain is an
    independent fresh game, and because the competitive ratio of a
    concatenation is a mediant of the per-phase ratios, repeating or
    chaining phases never beats the single best phase.  The game over
    one drain-to-drain phase therefore carries the full worst case for
    a given request budget, which is what makes exhaustive enumeration
    of phases sound (see DESIGN 4.10).

    Every evaluation runs the instance through {e both} interchangeable
    solvers ({!Strategies.Global} [Kernel] and [Rebuild]) and compares
    the two service schedules slot for slot — the search doubles as a
    differential fuzzer for the incremental kernel. *)

type strategy = {
  name : string;  (** paper name, e.g. ["A_fix"] *)
  key : string;   (** CLI key, e.g. ["fix"] *)
  build :
    solver:Strategies.Global.solver ->
    bias:Sched.Strategy.bias ->
    Sched.Strategy.factory;
}

val strategies : strategy list
(** The five global strategies, in Table-1 order. *)

val strategy_of_name : string -> (strategy, string) result
(** Accepts either the CLI key (["fix"]) or the paper name
    (["A_fix"]). *)

type prefix = Move.rtype list list
(** One adversary state: element [t] is the (possibly empty) multiset
    injected at round [t].  The last element is non-empty. *)

val size : prefix -> int
(** Total requests injected. *)

val drain_round : prefix -> int
(** First round by which every injected window has closed
    ([max (arrival + deadline)]; [0] for the empty state).  Injections
    at or after it start an independent phase and are pruned. *)

val realise : n:int -> d:int -> prefix -> Sched.Instance.t * Move.tag array
(** The instance a state denotes (requests in arrival order, ids
    dense) together with the id-indexed tag assignment.
    @raise Invalid_argument if a type names a resource [>= n] or a
    deadline [> d]. *)

type eval = {
  opt : int;            (** offline optimum of the realised instance *)
  alg : int;            (** requests served by the kernel solver *)
  ratio : Prelude.Rat.t;  (** [opt/alg] exactly ([0] when [alg = 0]) *)
  agree : bool;         (** kernel and rebuild schedules identical? *)
}

val evaluate_instance :
  ?metrics:Obs.Metrics.t ->
  strategy -> Sched.Instance.t -> Move.tag array -> eval
(** Score one instance: run the strategy with the tag bias under both
    solvers, compare the schedules, and take OPT from
    {!Offline.Opt.value}.  Records [search.evals],
    [search.disagreements] and the [search.eval_us] histogram into
    [metrics] (or the ambient registry). *)

val evaluate :
  ?metrics:Obs.Metrics.t -> strategy -> n:int -> d:int -> prefix -> eval
(** [evaluate_instance] of [realise]. *)

val canonical_key : n:int -> prefix -> string
(** Canonical encoding of a state: the lexicographically smallest
    rendering over all [n!] resource relabelings (each round sorted by
    {!Move.compare_rtype}, [Prefer] tags renamed along).  Two states
    equal up to resource names share a key — the transposition-table
    identity.  Intended for the small exhaustive tier; [n > 6] falls
    back to the identity labeling only. *)
