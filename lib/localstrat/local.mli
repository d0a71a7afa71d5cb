(** The paper's local (distributed) strategies (Sec. 3.2) over the
    synchronous simulator.

    The protocol itself is {!Machine}, the one decision state machine
    of these strategies; this module is its {!Distnet.Net} carrier.
    Every request-to-resource exchange is a metered communication
    round with mailbox capacity [d] and LDF overflow, exactly the model
    the paper charges; a bounce (or an injected loss) is the only
    failure, and every serve the machine claims happens.  The live
    cluster ([Cluster.Session]) drives the same machine over its wire
    transport, so the two cannot disagree on a decision.

    - {!fix} ([A_local_fix], Theorem 3.7, 2 communication rounds,
      competitive ratio exactly 2): new requests try their first
      alternative; each resource accepts a maximal set into its free
      slots; failures retry their second alternative once.  Assignments
      are final.

    - {!eager} ([A_local_eager], Theorem 3.8, at most 9 communication
      rounds, competitive ratio at most 5/3): phase 1 re-runs the fix
      protocol over {e all} unscheduled live requests; phase 2 lets
      requests scheduled in the future move onto a free current slot at
      their other resource; phase 3 lets a still-unscheduled request
      [q] rescue itself by re-homing the request [r] occupying its
      alternative's current slot onto [r]'s other resource and taking the
      freed slot, protected by a high-priority tag — tried at [q]'s first
      and then second alternative, with the retry overlapping the first
      attempt's final round. *)

type stats = {
  scheduling_rounds : int;   (** engine rounds stepped *)
  comm_rounds_total : int;
  comm_rounds_max : int;     (** max communication rounds in one engine round *)
  messages : int;
  bounced : int;
}

val fix : ?loss:float -> ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit -> Sched.Strategy.factory
(** [priority] breaks the network's LDF ties (the adversarial knob of
    Theorem 3.7's lower bound).  [loss] (default 0) injects message
    loss into the network (see {!Distnet.Net.create}); the protocol
    treats drops as bounces and stays consistent, it just serves
    less.  [metrics] is handed to the underlying {!Distnet.Net}, so
    the network's [net.*] counters land in the caller's registry (the
    ambient one when omitted). *)

val eager : ?compact:bool -> ?loss:float ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit -> Sched.Strategy.factory
(** [compact] (default false) applies the paper's remark after the
    protocol description: raising the mailbox capacity to [2d - 2] lets
    phase 2's cancellation round travel together with phase 3's first
    rival round, saving one communication round (at most 8 per
    scheduling round instead of 9). *)

val fix_with_stats : ?loss:float ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit ->
  Sched.Strategy.factory * (unit -> stats)
(** As {!fix}, plus a live accessor for the traffic meters of the last
    created strategy instance. *)

val eager_with_stats : ?compact:bool -> ?loss:float ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit ->
  Sched.Strategy.factory * (unit -> stats)
