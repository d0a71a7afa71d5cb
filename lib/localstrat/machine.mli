(** The decision state machine of the paper's local strategies
    (Sec. 3.2), written once and driven through a {e carrier}.

    The state is what the resources collectively know: the slot table
    ({!Sched.Slots}, maximal acceptance into the earliest free slot of the
    window), the assignment map and the live requests.  It advances
    {e only} on the outcomes the carrier reports for the messages it
    was handed, so two carriers that deliver the same messages reach
    the same decisions by construction:

    - {!Local}'s carrier is the synchronous simulator {!Distnet.Net}
      (never [Dead]; hooks do nothing; every serve confirmed);
    - [Cluster.Session]'s carrier renders each message to wire bytes,
      sends it through [Cluster.Transport] to the node hosting the
      resource, and hands back the re-parsed message; its hooks write
      the node replicas and send the replies.

    Both carriers apply the mailbox rule of {!Distnet.Budget}. *)

module Request = Sched.Request

type status = Distnet.Net.status =
  | Delivered
  | Bounced  (** lost the LDF capacity contest (or the loss coin) *)
  | Dead     (** destination hosted on a dead node; never contested *)

(** Protocol messages, one per communication-round kind. *)
type msg =
  | Offer of Request.t   (** fix offer (also eager phase 1) *)
  | Probe of Request.t   (** eager phase 2: ask for the current slot *)
  | Cancel of { q : int; old_res : int; old_t : int }
      (** release an acknowledged mover's old slot *)
  | Rival of Request.t   (** eager phase 3: swap solicitation *)
  | Swap of { r : int; q : Request.t }
      (** tagged: the current slot held by [r] now belongs to [q] *)
  | Rehome of { r : Request.t; res : int }
      (** move occupant [r] of [res]'s current slot to its other
          resource *)

type envelope = msg Distnet.Net.message

(** Decisions the carrier's replicas must see.  Raised only for
    [Delivered] messages: a [Dead] cancel or swap still commits in the
    machine, but no replica learns of it. *)
type event =
  | Accept of { r : Request.t; res : int; slot : int }
      (** [r] now holds [slot] at [res] (offer or rehome) *)
  | Full of { q : int; res : int }  (** offer rejected: window full *)
  | Ack of { q : Request.t; res : int; slot : int option }
      (** [res] acknowledges [q]: a phase-2 mover, pre-positioned in
          [slot] (the current round), or a phase-3 rival ([None]) *)
  | Released of { res : int; slot : int }  (** cancel landed *)
  | Swapped of { q : Request.t; res : int; round : int }
      (** swap landed: [q] holds [res]'s current slot *)

type carrier = {
  exchange : envelope list -> (envelope * status) list;
      (** one communication round: each message as delivered, in input
          order, with its outcome *)
  event : event -> unit;
  confirm : res:int -> round:int -> int -> bool;
      (** does [res] really serve this request now?  [false] keeps the
          request live and unassigned *)
}

type t

val create : n:int -> d:int -> t
(** Empty state over [n] resources, for requests with
    [1 <= deadline <= d]: the {!Sched.Slots} table is [d] rounds deep.
    {!Sched.Engine.Live} enforces this for {!Local}, and
    [Cluster.Session.submit] checks it. *)

val capacity : compact:bool -> d:int -> int
(** The paper's mailbox capacity: [d], or [2d - 2] (at least [d]) for
    the compact eager variant, whose cancel round shares a
    communication round with phase 3's first rival round. *)

val admit : t -> Request.t -> unit
(** A live, unassigned request. *)

val find : t -> int -> Request.t option
(** The live request with this id. *)

val pending : t -> int
(** Live requests. *)

val unscheduled : t -> Request.t list
(** Live requests without a slot, ascending id. *)

val expire : t -> round:int -> int list
(** Drop the requests whose window closed before [round], freeing their
    slots; their ids, ascending. *)

val evict : t -> lost:(int -> bool) -> int list
(** Free every assignment on a resource satisfying [lost] (its replica
    is gone); the ids of the still-live requests affected, ascending. *)

val first_free : t -> round:int -> res:int -> Request.t -> int option
(** Earliest free slot of [res] inside the request's window from
    [round] on, without taking it. *)

val try_accept : t -> round:int -> res:int -> Request.t -> int option
(** Take {!first_free} and assign the request to it. *)

val fix_round : t -> carrier -> round:int -> Request.t list -> unit
(** [A_local_fix] (Thm 3.7), 2 communication rounds: the newcomers
    offer themselves to their first alternative, each resource accepts
    in EDF order, failures (bounced, dead or rejected) retry their
    second alternative once. *)

val eager_round : t -> carrier -> compact:bool -> round:int -> unit
(** [A_local_eager] (Thm 3.8), at most 9 communication rounds (8 when
    [compact]): phase 1 runs the fix rounds over every unscheduled live
    request; phase 2 moves requests scheduled in the future onto a free
    current slot at their other resource; phase 3 lets a still
    unscheduled request re-home the occupant of its alternative's
    current slot and take that slot (tried at both alternatives; the
    second attempt overlaps the first's tagged swap round). *)

val collect : t -> carrier -> round:int -> Sched.Strategy.serve list
(** End of round: take every current-round slot the carrier confirms;
    the serves, ascending resource. *)
