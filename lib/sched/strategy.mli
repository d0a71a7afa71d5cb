(** The online strategy interface.

    A strategy instance is stateful: the engine creates one per run, feeds
    it the arrivals of each round in order, and executes the services the
    strategy returns for the current round.  Everything a strategy plans
    for future rounds is its own internal state; only current-round
    services cross the interface, which keeps the engine's bookkeeping
    (and its validity checking) strategy-agnostic.

    The [bias] hook is how the paper's {e existential} lower bounds are
    realised: strategies defined as "choose {e any} matching such that …"
    are implemented as tiered-weight optimisation, and [bias] supplies the
    lowest tier, steering ties without ever violating the strategy's
    defining rules (which occupy strictly higher tiers).  A neutral run
    passes {!no_bias}. *)

type serve = { request : int; resource : int }
(** One service decision: the given request is served by the given
    resource in the current round. *)

type t = {
  name : string;
  step : round:int -> arrivals:Request.t array -> serve list;
      (** Called once per round, rounds advancing by one from 0;
          returns the services to execute this round.  [arrivals] are
          the requests admitted for this round: each has
          [arrival = round] and [1 <= deadline <= d], and their ids
          ascend, continuing the previous rounds' ids.
          {!Engine.Live}, the only caller, enforces this contract, and
          strategies may rely on it. *)
}

type bias = request:Request.t -> resource:int -> round:int -> int
(** Tie-break weight of scheduling [request] on [resource] at [round]
    (bigger = more attractive).  Must be bounded for the run. *)

type factory = n:int -> d:int -> t
(** Fresh strategy state for an instance with [n] resources and nominal
    deadline [d]. *)

val no_bias : bias
(** Always 0. *)
