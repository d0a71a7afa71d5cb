(** Matchings in bipartite graphs.

    A matching is stored as the pair of partner maps ([-1] means free)
    plus the edge id used at each matched left vertex, so schedules can be
    reconstructed edge-exactly. *)

type t = {
  left_to : int array;   (** left vertex -> matched right vertex or -1 *)
  right_to : int array;  (** right vertex -> matched left vertex or -1 *)
  left_edge : int array; (** left vertex -> edge id used or -1 *)
}

val empty : Bipartite.t -> t
(** All vertices free. *)

val copy : t -> t

val size : t -> int
(** Number of matched edges. *)

val is_matched_left : t -> int -> bool
val is_matched_right : t -> int -> bool

val use_edge : Bipartite.t -> t -> int -> unit
(** [use_edge g m id] matches the endpoints of edge [id].
    @raise Invalid_argument if either endpoint is already matched. *)

val drop_left : t -> int -> unit
(** Unmatch the given left vertex (no-op if free). *)

val is_valid : Bipartite.t -> t -> bool
(** Partner maps are mutually consistent and every used edge exists in the
    graph with the recorded endpoints. *)

val is_maximal : Bipartite.t -> t -> bool
(** No edge joins two free vertices. *)

val matched_edges : t -> int list
(** Ids of the edges in the matching, ascending by left vertex. *)

val greedy_maximal : Bipartite.t -> t
(** Scan edges in id order and take every edge whose endpoints are both
    free: a maximal (not necessarily maximum) matching. *)

val augment_along : Bipartite.t -> t -> int list -> unit
(** [augment_along g m path] flips matching membership along an
    alternating path given as a list of edge ids
    [e0; e1; …; e2k] where even-indexed edges are currently unmatched and
    odd-indexed edges are currently matched, and the path starts at a free
    left vertex and ends at a free right vertex.  Increases [size] by one.
    @raise Invalid_argument if the list does not describe such a path. *)
