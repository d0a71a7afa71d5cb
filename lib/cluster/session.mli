(** A cluster session: the router tier driving the paper's local
    strategies {e live} across shard nodes.

    Resources are consistent-hashed over [nodes] in-process shard
    nodes ({!Ring}, {!Node}); every protocol message travels as
    rendered {!Wire} bytes through a {!Transport} whose per-resource
    mailbox capacity and LDF drop rule are the paper's communication
    model (Sec. 1.3) — so [A_local_fix] keeps its 2-competitive
    guarantee and 2-round budget (Thm 3.7) and [A_local_eager] its
    9-round budget (Thm 3.8) on the live path, measured, not assumed.

    One state machine, two carriers: the protocol is
    {!Localstrat.Machine}, the very code {!Localstrat.Local} runs over
    the simulator; the session is its wire carrier.  The machine's
    messages are rendered to {!Wire} bytes, routed to the node hosting
    their resource and handed back re-parsed, so every decision is
    taken from what the wire delivered.  The session writes each
    decision the machine announces (accept, ack, released cancel,
    landed swap) onto the owning node's replica and answers it over
    the wire.  Two consequences the test-suite pins: the served set is
    the simulator's on any failure-free schedule, and identical across
    node layouts (placement only chooses which replica hosts a slot,
    never what the protocol decides) — which is what makes [--manual]
    replay byte-identical across cluster shapes.  A message to a
    resource on a dead node is [Dead]: an offer fails over to the
    second alternative like a bounce, a cancel or swap commits in the
    machine without reaching a replica.  Node replicas hold the request
    payloads, confirm each end-of-round serve (disagreements with the
    machine are counted, never silently served) and carry the state
    that is genuinely lost on {!kill}.

    Failure handling: the router pings every node each round; after
    [fail_after] consecutive missed pongs the node is declared dead,
    the ring rebalances onto the survivors, and every request assigned
    to one of the dead node's resources is re-admitted with its
    {e original} window (it re-enters the next round's offer phase).
    {!rejoin} re-admits the node through a versioned [join], rebalances
    the ring back, and moves the affected future slots to it with
    explicit handoff messages.  Every admitted request still reaches
    exactly one terminal outcome (served, expired or rejected at
    submission) — the invariant the kill-mid-run test checks. *)

type kind =
  | Local_fix                            (** Thm 3.7: 2 rounds, ratio 2 *)
  | Local_eager of { compact : bool }
      (** Thm 3.8: 9 rounds (8 at capacity [2d-2] when [compact]) *)
  | Proxy_global
      (** non-paper baseline: the router probes both alternatives'
          load and assigns the earliest free slot, 2 rounds per
          attempt; no fixing, so requests left out retry every round *)

val kind_name : kind -> string

val kinds : (kind * string) list
(** Every kind with a one-line description, in display order: the one
    table behind {!kind_of_name} and the CLI's [--strategy] help. *)

val kind_of_name : string -> (kind, string) result
(** The kind whose {!kind_name} is the given name, hyphens and
    underscores interchangeable; any other name is an [Error] listing
    every kind. *)

type stats = {
  scheduling_rounds : int;
  comm_rounds_total : int;
  comm_rounds_max : int;   (** worst communication rounds in one round *)
  messages : int;          (** capacity-contested data messages *)
  bounced : int;           (** LDF capacity bounces *)
  dropped_dead : int;      (** data messages sent to dead nodes *)
  replies : int;           (** uncapped reply lines *)
  ctrl_msgs : int;         (** control lines (hello/ping/join/handoff) *)
  requests : int;          (** arrivals admitted *)
  straddled : int;         (** arrivals whose alternatives live on
                               different nodes (at arrival time) *)
  served : int;
  expired : int;
  readmitted : int;
  failovers : int;
  handoffs : int;          (** handoff messages sent on rejoins *)
  handoff_slots : int;
  serve_conflicts : int;   (** machine/replica disagreements; 0 unless
                               a node lost state the router had not yet
                               detected *)
}

type outcome = {
  round : int;
  served : (int * int) list;  (** (request id, resource), resource order *)
  expired : int list;         (** ids expired this round, ascending *)
}

type t

val create :
  ?metrics:Obs.Metrics.t ->
  ?capacity:int ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?fail_after:int ->
  strategy:kind -> nodes:int -> n:int -> d:int -> unit -> t
(** A cluster of [nodes] shard nodes over [n] resources with nominal
    deadline [d].  [capacity] is the per-resource mailbox bound
    (default: the strategy's paper value — [d], or [2d-2] for the
    compact eager variant); it must be at least [d], the bound the
    protocols' cancellation soundness needs.  [priority] breaks LDF
    ties (Thm 3.7's favoured/victim split).  [fail_after] (default 2)
    is the missed-pong threshold of dead-node detection.  [metrics]
    (ambient fallback) receives the [cluster.*] counters as they move,
    through handles bound here (the traffic ones by {!Transport}).
    @raise Invalid_argument on [nodes < 1], [n < 1], [d < 1],
    [capacity < d] or [fail_after < 1]. *)

val submit :
  t -> alternatives:int list -> deadline:int -> (int, string) result
(** Admit a request arriving at the current round under the next dense
    id; it enters the next {!step}'s offer phase.  Malformed
    alternatives or a deadline outside [1 .. d] is an [Error] and admits
    nothing. *)

val step : t -> outcome
(** Execute one scheduling round: ping/failure detection, expiry,
    arrivals (queued submissions and failover readmissions), the
    strategy's communication rounds over the wire, then the serve
    collection against the node replicas. *)

val round : t -> int
val pending : t -> int
(** Admitted requests with no terminal outcome yet. *)

val kill : t -> int -> unit
(** Crash a node: its replica state is lost {e now}; the router keeps
    routing to it (messages bounce as dead) until detection declares
    it dead and rebalances.  @raise Invalid_argument on an unknown or
    already-dead node. *)

val rejoin : t -> int -> unit
(** Restart a crashed node and re-admit it: versioned join, ring
    rebalance, explicit handoff of the future slots of every resource
    that moves back to it.  A node killed but not yet declared dead
    rejoins empty with no rebalance (the router never noticed; its
    lost state surfaces as counted serve conflicts and readmissions).
    @raise Invalid_argument if the node is alive. *)

val node_alive : t -> int -> bool
(** Ground truth (not the router's suspicion state). *)

val owner : t -> int -> int
(** The node currently hosting a resource. *)

val stats : t -> stats

val factory :
  ?metrics:Obs.Metrics.t ->
  ?capacity:int ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?fail_after:int ->
  ?on_create:(t -> unit) ->
  strategy:kind -> nodes:int -> unit -> Sched.Strategy.factory
(** Adapt a cluster session to the engine's strategy interface, so
    {!Sched.Engine.run} (full ledger validation) and the serve shards
    can drive a cluster.  [on_create] receives each fresh session —
    the hook tests and the CLI use to reach {!stats} or schedule
    kills. *)
