(** Bipartite graphs with dense integer vertex ids.

    Left vertices model requests, right vertices model time slots (but the
    module is generic).  Vertices are [0 .. n_left-1] and [0 .. n_right-1];
    edges carry a stable id in insertion order, which the weighted matching
    engine uses to attach weights.  Parallel edges are permitted (the
    scheduling graphs never create them, but nothing here depends on
    their absence).

    The vertex counts are fixed at {!create}; only edges are added.  A
    graph that grows vertex by vertex is {!Augment}'s column store, which
    holds only the part a later search can reach. *)

type t

val create : n_left:int -> n_right:int -> t
(** An empty graph on the given vertex counts. *)

val n_left : t -> int
val n_right : t -> int
val n_edges : t -> int

val add_edge : t -> left:int -> right:int -> int
(** Insert an edge and return its id ([0 .. n_edges-1] in insertion
    order).
    @raise Invalid_argument if an endpoint is out of range. *)

val edge_left : t -> int -> int
val edge_right : t -> int -> int
(** Endpoints of an edge id. *)

val adj_left : t -> int -> Prelude.Ivec.t
(** Edge ids incident to a left vertex.  The returned vector is the
    internal one: callers must not mutate it. *)

val adj_right : t -> int -> Prelude.Ivec.t
(** Edge ids incident to a right vertex (same caveat). *)

val degree_left : t -> int -> int
val degree_right : t -> int -> int

val iter_edges : t -> (int -> left:int -> right:int -> unit) -> unit
(** Iterate all edges in id order. *)

val has_edge : t -> left:int -> right:int -> bool
(** Linear in the smaller degree. *)
