(** Maximum cardinality bipartite matching (Hopcroft–Karp, 1973).

    [O(E √V)]: each phase finds a maximal set of vertex-disjoint shortest
    augmenting paths by one BFS + one DFS; at most [√V] phases are needed.
    This is the offline-optimum engine ({!Offline.Opt}) on the
    one-node-per-request paper graph. *)

val solve : Bipartite.t -> Matching.t
(** A maximum cardinality matching of the graph. *)

val solve_from : Bipartite.t -> Matching.t -> Matching.t
(** Like {!solve} but starting from an existing valid matching (which is
    not modified); useful to warm-start from a greedy matching. *)

val max_matching_size : Bipartite.t -> int
(** [size (solve g)] without exposing the matching. *)

val min_vertex_cover : Bipartite.t -> Matching.t -> int list * int list
(** König's construction: from a {e maximum} matching, the minimum
    vertex cover [(left_vertices, right_vertices)] — left vertices not
    reachable by an alternating path from any free left vertex, plus
    right vertices that are.  Its size equals the matching's size, which
    certifies the matching is maximum; {!is_koenig_certificate} checks
    both properties.  Garbage in, garbage out: the input must be a
    maximum matching. *)

val is_koenig_certificate : Bipartite.t -> Matching.t -> bool
(** Verify that [min_vertex_cover g m] really covers every edge and has
    exactly [Matching.size m] vertices — a self-contained optimality
    certificate for [m] (used by tests to certify the offline optimum
    without trusting the solver twice). *)
