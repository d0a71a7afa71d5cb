(** Consistent hash ring: resources to shard nodes.

    The router tier places each resource on exactly one node; the
    placement must disturb as little as possible when membership
    changes, because every moved resource costs an explicit slot
    handoff on rejoin (DESIGN.md §4.12).  Classic consistent hashing
    gives that: each node projects 64 points onto a hash circle
    and a resource belongs to the node owning the first point at or
    after the resource's own hash.  Removing a node only reassigns the
    resources it owned; adding it back restores exactly the original
    placement — both properties are pinned by the test-suite, and the
    second is what makes a rejoin handoff the precise inverse of the
    failover that preceded it.

    A ring covers a fixed resource count [n] and computes the owner of
    every resource in [0 .. n-1] when it is built, so {!owner} is an
    array read: placements change only with membership, lookups happen
    on every message.

    Values are immutable; membership changes return a new ring.  The
    hash is a fixed splitmix-style mixer, so placements are stable
    across runs, processes and platforms (no [Hashtbl.hash], whose
    values the runtime does not pin). *)

type t

val create : nodes:int list -> n:int -> unit -> t
(** A ring over the given member nodes, 64 points each, placing the
    resources [0 .. n-1].
    @raise Invalid_argument on an empty or duplicate-containing member
    list, a negative node id or a negative [n]. *)

val owner : t -> int -> int
(** The node owning the given resource: the member of the first point
    at or after the resource's hash, else of the smallest point.
    @raise Invalid_argument outside [0 .. n-1]. *)

val members : t -> int list
(** Current members, ascending. *)

val mem : t -> int -> bool

val remove : t -> int -> t
(** Ring without the given node, over the same resources.
    @raise Invalid_argument when removing the last member or a
    non-member. *)

val add : t -> int -> t
(** Ring with the given node (re)admitted, over the same resources.
    @raise Invalid_argument if already a member. *)

val moved : before:t -> after:t -> int list
(** Resources whose owner differs between the two rings, ascending —
    the handoff set of a membership change.
    @raise Invalid_argument when the rings place different resource
    counts. *)
