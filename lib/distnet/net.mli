(** The paper's communication model for local strategies (Sec. 1.3).

    Requests and resources exchange fixed-size messages in synchronous
    {e communication rounds}.  Per communication round, at most
    [capacity] ([= d] in the paper) messages reach each resource; when
    more are addressed to it, the resource receives those with the
    latest deadlines (LDF) — ties resolved by a caller-supplied priority,
    higher first, then lower sender id — and the others {e bounce}: their
    senders are notified of the failure.  A message carrying the
    high-priority [tagged] flag is always delivered first
    ([A_local_eager]'s swap tag; the paper argues a resource receives at
    most one such message per round).

    Responses (resource to request) are not capacity-limited, matching
    the paper's asymmetric accounting, and are not modelled explicitly:
    protocol code simply reads the delivery outcome.

    The module also meters traffic: communication rounds and message
    counts, so tests can check the protocols' budgets (2 rounds for
    [A_local_fix], at most 9 for [A_local_eager]) as measurements rather
    than assumptions.  Each network carries its own private meters (the
    accessors below), and additionally mirrors every increment into an
    {!Obs.Metrics} registry (counters [net.comm_rounds], [net.sent],
    [net.delivered], [net.bounced], [net.dropped]) for telemetry.  The
    accessors never read the registry: the registry may be the ambient
    one, shared by every network in the process — including networks
    running concurrently in other domains under the job runner — so
    budget accounting must come from the per-instance meters. *)

(** A message's fate in one communication round.  The simulator only
    ever delivers or bounces; [Dead] (destination hosted on a crashed
    node, never contesting capacity) is the live cluster's. *)
type status = Delivered | Bounced | Dead

type 'a message = {
  sender : int;      (** request id (or any sender key for priorities) *)
  dst : int;         (** resource index *)
  deadline_key : int;
      (** absolute deadline (last servable round) used by the LDF rule *)
  tagged : bool;     (** high-priority tag: bypasses the capacity cut *)
  payload : 'a;
}

type t

val create : n:int -> capacity:int ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?loss:float -> ?loss_rng:Prelude.Rng.t ->
  ?metrics:Obs.Metrics.t -> unit -> t
(** A network over [n] resources.  [priority] breaks LDF ties (higher
    kept); it defaults to constant 0 (so ties fall to lower sender id).

    [loss] (default 0.0) drops each untagged message independently with
    the given probability {e before} the capacity rule — failure
    injection for robustness studies.  The local protocols treat a
    dropped message exactly like a capacity bounce, so they stay
    consistent at any loss rate (they just serve less).  Tagged
    messages are never dropped, matching their delivery guarantee in
    the paper.  [loss_rng] seeds the drop coin (fresh seed 0 if
    omitted).

    [metrics] is the registry the traffic counters are mirrored into;
    when omitted the ambient registry ({!Obs.Metrics.set_ambient}) is
    used if set, else a fresh private one.  Networks sharing a registry
    aggregate their counters there; each network's own meters (the
    accessors below) stay private to it.
    @raise Invalid_argument if [n < 1], [capacity < 1] or
    [loss] is outside [\[0, 1\]]. *)

val exchange : t -> 'a message list -> ('a message * bool) list
(** Execute one communication round: returns each message paired with
    [true] (delivered) or [false] (bounced by the capacity rule).
    Tagged messages are delivered before untagged ones and do not count
    against the capacity (per the paper's note that at most one arrives
    per resource); untagged messages then compete for [capacity] slots.
    Each message is delivered or bounced individually, keyed by its
    position in the list — several messages with the same sender and
    destination in one exchange are distinct (LDF ties among them break
    by list order).  Counts one communication round if the list is
    non-empty, zero otherwise. *)

val deliver : t -> 'a message list -> ('a message * status) list
(** {!exchange} reporting [Delivered] / [Bounced] (never [Dead]): the
    carrier the local strategies' state machine runs over. *)

val tick : t -> unit
(** Count a communication round that carries no request-to-resource
    traffic (a pure response round a protocol still spends). *)

val comm_rounds : t -> int
(** Communication rounds so far. *)

val messages_sent : t -> int
val messages_bounced : t -> int
(** Bounced = not delivered, whether by the capacity cut or by loss
    injection. *)

val messages_dropped : t -> int
(** The loss-injected subset of the bounces. *)

val metrics : t -> Obs.Metrics.t
(** The registry this network's counters are mirrored into. *)

val reset_counters : t -> unit
(** Zero this network's private meters.  The metrics registry is
    untouched: it is cumulative telemetry, possibly shared. *)
