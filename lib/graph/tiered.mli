(** Maximum-weight bipartite matching over lexicographic weight tiers.

    Edge weights are {!Lexvec.t} vectors of a common length; the engine
    returns a matching maximising the pointwise sum of its edge weights
    under lexicographic comparison.  This captures every strategy of the
    paper as a ranked objective list (keep previously scheduled requests >
    cardinality > balancing function [F] per-round counts > adversarial
    tie-break), see DESIGN.md §4.1.

    Method: phases of disjoint maximum-gain augmenting paths.  Starting
    from the empty matching (trivially optimal at cardinality 0), each
    phase runs one queue-based Bellman–Ford (SPFA) sweep over the
    residual digraph from every free left vertex, which labels each
    vertex with its maximum gain; if the best free right label [g] is
    lexicographically positive, the phase then flips vertex-disjoint
    augmenting paths of gain [g].  Every such path is {e tight} against
    the labels ([label a + gain = label b] on each arc), found by a
    depth-first search backwards over tight arcs from each free right
    vertex labelled [g] in ascending index (incoming edges in ascending
    id), ending at a free left vertex no earlier search of the phase
    visited.  Flipping a tight arc gives a tight arc, so the sweep's
    labels remain feasible potentials for the new residual digraph: it
    has no positive-gain cycle, hence each intermediate matching is
    maximum-weight among matchings of its cardinality.  Over an ordered
    abelian group the classical exchange argument then applies
    unchanged: once no augmenting path has positive gain, the matching
    is a global optimum on every tier.  Which optimum is returned is
    fixed by the visiting order above (ties lean towards small right
    indices), and {!Warm} replicates it edge for edge.

    A key structural fact used throughout the library: when every edge
    weight is positive in some tier at or above all negative tiers (true
    for all strategy weightings), every augmenting path has positive gain,
    hence the result is also a {e maximum cardinality} matching. *)

val solve : Bipartite.t -> weight:(int -> Lexvec.t) -> Matching.t
(** [solve g ~weight] maximises [Σ weight e] over matchings of [g].
    [weight] is consulted once per edge id; all vectors must share one
    length.
    @raise Invalid_argument on inconsistent vector lengths. *)

val weight_of : Bipartite.t -> weight:(int -> Lexvec.t) -> Matching.t ->
  Lexvec.t
(** Total weight of a matching under the given weighting (zero vector for
    the empty matching; length taken from edge 0, or 0 if no edges). *)

val is_max_weight_certificate : Bipartite.t -> weight:(int -> Lexvec.t) ->
  Matching.t -> bool
(** Certify optimality of a matching: no augmenting path and no
    alternating cycle has positive gain.  Exponential-free (one
    Bellman–Ford sweep); used by tests. *)
