(** An in-process shard node: the slot replica behind the router tier.

    Each node holds the materialised slot table for the resources the
    ring currently places on it — request payloads ({!Sched.Request.t}),
    not just ids, because the node is what actually serves: at the end
    of a round it reports its current-round occupants, and on a
    rebalance it is the node's table, not the router's decision state,
    that is exported in {!Wire.Handoff} messages.

    Replicas are written {e only} from delivered wire messages (the
    transport's [Delivered] outcomes), which is what makes node death
    meaningful: {!kill} wipes the table — in-flight state on a dead
    node is gone, exactly like a process crash — and the router's
    recovery path (failover readmission, rejoin handoff) has to
    rebuild it through the protocol.  The router compares each serve
    report against the protocol state ([cluster.serve_conflicts] counts
    disagreements), so a replica bug is detected, never silently
    served. *)

type t

val create : id:int -> n:int -> d:int -> t
(** A live, empty node over resources [0 .. n-1].  Its {!Sched.Slots}
    table is [d] rounds deep: every slot lies within [d] rounds of the
    session's current round, as [Session.submit] checks
    [1 <= deadline <= d]. *)

val id : t -> int
val alive : t -> bool

val kill : t -> unit
(** Process death: drops every slot and marks the node dead.
    Idempotent. *)

val revive : t -> unit
(** Restart, empty (state does not survive a crash); the ring handoff
    repopulates it.  @raise Invalid_argument if already alive. *)

val set_slot : t -> res:int -> round:int -> Sched.Request.t -> unit
(** @raise Invalid_argument when dead (a delivered message cannot
    target a dead node; the transport bounces those). *)

val free_slot : t -> res:int -> round:int -> unit
val take_slot : t -> res:int -> round:int -> Sched.Request.t option
(** Remove and return the occupant, for the end-of-round serve. *)

val export : t -> res:int -> from_round:int -> (int * Sched.Request.t) list
(** Remove and return [res]'s slots at rounds [from_round ..
    from_round + d - 1], ascending — the content of a {!Wire.Handoff}
    when [res] moves to another node. *)

val import : t -> res:int -> (int * Sched.Request.t) list -> unit
(** Install handed-off slots.  @raise Invalid_argument when dead or on
    an already-occupied slot (a handoff never overwrites). *)
