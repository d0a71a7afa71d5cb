(** The synchronous round engine.

    Drives a strategy over an instance exactly as Sec. 1.2 of the paper
    prescribes: each round, expired requests die, new requests are
    revealed, the strategy decides, and one request per resource is
    served.  The engine owns all validity checking, so a buggy strategy
    cannot silently overcount. *)

exception Protocol_error of string
(** A strategy returned an illegal service: unknown or expired request,
    resource not among its alternatives, or two services on one resource
    in the same round. *)

(** What a run reports round by round, as {!Live.step_with} sees it:
    [arrivals round reqs] before the step, [served id round] on each
    first service in service order, [expired id round] on each window
    closed unserved (ids ascending, after the services), then
    [round_done round]. *)
type observer = {
  arrivals : int -> Request.t array -> unit;
  served : int -> int -> unit;
  expired : int -> int -> unit;
  round_done : int -> unit;
}

val run :
  ?metrics:Obs.Metrics.t -> ?observer:observer -> Instance.t ->
  Strategy.factory -> Outcome.t
(** Run the strategy over the whole instance, telling [observer] each
    round's events as they happen.  Services of an
    already-served request are legal but counted as [wasted] (the paper's
    EDF duplicates); everything else illegal raises {!Protocol_error}.

    [metrics] (or, when omitted, the ambient registry of
    {!Obs.Metrics.set_ambient}) receives per-round instrumentation:
    counters [engine.rounds], [engine.arrivals], [engine.served],
    [engine.wasted]; histograms [engine.step_us] (wall-clock latency of
    each strategy step, microseconds) and [engine.served_per_round].
    With neither set, the engine records nothing and pays one match per
    round. *)

type adaptive = round:int -> is_served:(int -> bool) -> Request.t list
(** An adaptive adversary: called at the start of every round with the
    current round number and a predicate telling whether a given request
    id has been served so far, it returns the requests arriving this
    round (protos; ids are assigned in emission order, so the adversary
    can predict them by counting).  Returned arrivals must have
    [arrival = round].  Used by the paper's Theorem 2.6, whose adversary
    blocks whichever colour group the algorithm left most unserved. *)

val run_adaptive :
  ?metrics:Obs.Metrics.t ->
  n:int -> d:int -> last_arrival_round:int -> adversary:adaptive ->
  Strategy.factory -> Outcome.t
(** Run a strategy against an adaptive adversary.  The adversary is
    consulted for rounds [0 .. last_arrival_round]; the engine then keeps
    stepping the strategy until every window has closed.  The realised
    instance is available as [(result).instance], so the offline optimum
    of exactly the adaptively-generated workload can be computed
    afterwards.
    @raise Invalid_argument when the adversary emits an arrival {!Live.submit}
    would reject (resource [>= n], deadline [> d]) or one whose arrival is
    not the current round. *)

(** The incremental (live) engine, the one round engine: {!run} and
    {!run_adaptive} step it over a whole workload.  Requests are
    submitted between rounds and the caller decides when each round
    ticks.  This is what a {e serving} shard drives: admit, tick, collect
    terminal outcomes.  It holds only requests whose window is still
    open, so its state is bounded by the requests in flight.

    [Live] is the only caller of {!Strategy.t.step}, and it upholds
    that function's contract: each round's arrivals have
    [arrival = round], [1 <= deadline <= d] (enforced by {!submit}) and
    dense ids ascending from 0 in submission order.

    Determinism: the outcome of a run depends only on the strategy and
    the sequence of submissions between steps, so replaying a recorded
    trace through a fresh engine reproduces every decision exactly. *)
module Live : sig
  type outcome = {
    round : int;                (** the round just executed *)
    served : (int * int) list;
        (** (request id, resource) of first services, in service order *)
    expired : int list;
        (** ids whose window closed unserved in this round, ascending *)
  }

  type t

  val create :
    ?metrics:Obs.Metrics.t -> n:int -> d:int -> Strategy.factory -> t
  (** A live engine over [n] resources with nominal deadline [d].  The
      strategy is instantiated once; [metrics] (or the ambient registry)
      receives the same [engine.*] instrumentation as {!run}.
      @raise Invalid_argument if [n < 1] or [d < 1]. *)

  val submit :
    t -> alternatives:int list -> deadline:int -> (int, string) result
  (** Admit a request arriving at the {e current} round; it becomes part
      of the next {!step}'s arrivals.  Returns the engine-assigned dense
      id.  [Error] (malformed alternatives, resource [>= n], deadline
      outside [1 .. d]) admits nothing. *)

  val submit_array :
    t -> alternatives:int array -> deadline:int -> (int, string) result
  (** {!submit} over an array, which the admitted request takes over
      (not copied: the caller must not mutate it afterwards).  Same
      checks and messages. *)

  val step_with :
    t -> served:(int -> int -> unit) -> expired:(int -> unit) -> int
  (** Execute the current round and return its number: reveal the
      queued submissions to the strategy, validate and apply its
      services, close expiring windows, and advance the round counter.
      [served id resource] is called on each first service, in service
      order, as it is validated; [expired id] on each id whose window
      closed unserved in this round, ascending, after every service.
      Builds no list: a steady-state round allocates the arrivals array
      it hands the strategy, and what the strategy and the callbacks
      allocate.
      @raise Protocol_error on an illegal service, as {!run}; services
      validated before the illegal one have been reported. *)

  val step : t -> outcome
  (** {!step_with} collecting the served and expired ids into an
      {!outcome}. *)

  val pending : t -> int
  (** Admitted requests with no terminal outcome yet. *)

  val submitted : t -> int
  (** Total requests ever admitted (also the next fresh id). *)

  val round : t -> int
  (** The round the next step executes (rounds stepped so far). *)
end
