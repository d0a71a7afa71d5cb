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

    Values are immutable; membership changes return a new ring.  The
    hash is a fixed splitmix-style mixer, so placements are stable
    across runs, processes and platforms (no [Hashtbl.hash], whose
    values the runtime does not pin). *)

type t

val create : nodes:int list -> unit -> t
(** A ring over the given member nodes, 64 points each.
    @raise Invalid_argument on an empty or duplicate-containing member
    list, or a negative node id. *)

val owner : t -> int -> int
(** The node owning the given resource. *)

val members : t -> int list
(** Current members, ascending. *)

val mem : t -> int -> bool

val remove : t -> int -> t
(** Ring without the given node.
    @raise Invalid_argument when removing the last member or a
    non-member. *)

val add : t -> int -> t
(** Ring with the given node (re)admitted.
    @raise Invalid_argument if already a member. *)

val moved : before:t -> after:t -> n:int -> int list
(** Resources in [0 .. n-1] whose owner differs between the two rings,
    ascending — the handoff set of a membership change. *)
