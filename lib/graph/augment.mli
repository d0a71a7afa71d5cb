(** Incremental maximum matching on a growing bipartite graph.

    {!Hopcroft_karp} solves a fixed graph; this module keeps a matching
    {e maximum while the graph grows}.  The intended discipline — the one
    the streaming offline optimum ({!Offline.Opt_stream}) follows — is:

    + append vertices and edges to the underlying {!Bipartite.t} so that
      every new edge is incident to a right vertex added since the last
      call to {!augment_new_rights} (a scheduling round's time slots
      arrive together with all edges into them);
    + call {!augment_new_rights} with the first newly added right vertex.

    Under that discipline one augmenting-path search per new right
    vertex, ever, restores maximality: every augmenting path in a
    bipartite graph has exactly one free endpoint per side, any path
    created by the appends must end at a new (free) right vertex, and
    roots whose search failed can never gain a path later (non-revival).
    The differential test-suite pins this against {!Hopcroft_karp} on
    hundreds of randomized instances.

    Searches are plain Kuhn DFS with visit stamps: [O(E)] worst case per
    new right vertex, near-constant in practice because most slots match
    immediately or fail on a tiny reachable set. *)

type t

type search_stats = {
  searches : int;  (** augmenting-path searches started on free roots *)
  successes : int; (** searches that grew the matching *)
  warm_hits : int;
      (** successes whose first probed left vertex was free — no
          rematching; [warm_hits / searches] is the warm-start hit
          rate the streaming-optimum metrics report *)
  visited : int;   (** total left vertices stamped across all searches *)
}

val create : Bipartite.t -> t
(** Attach to a graph and compute an initial maximum matching (via
    {!Hopcroft_karp.solve_from} warm-started from a greedy matching when
    the graph already has edges; free for an empty graph).  The graph may
    keep growing afterwards; this module never mutates it. *)

val graph : t -> Bipartite.t

val size : t -> int
(** Current matching size — the running offline optimum when the graph
    is a paper-graph prefix. *)

val stats : t -> search_stats
(** Cumulative search-effort counters since {!create} (the initial full
    solve of a pre-populated graph is not counted; only incremental
    searches are). *)

val augment_from_right : t -> int -> bool
(** One augmenting-path search rooted at the given right vertex; flips
    the path and returns [true] if the matching grew.  No-op returning
    [false] on an already-matched vertex.
    @raise Invalid_argument if the vertex is out of range. *)

val augment_new_rights : t -> first:int -> int
(** [augment_new_rights t ~first] runs {!augment_from_right} on every
    right vertex in [first .. Bipartite.n_right (graph t) - 1] and
    returns the number of successful augmentations.  Under the module's
    append discipline this restores maximality after a batch of appends.
    @raise Invalid_argument on a negative [first]. *)

val matching : t -> Matching.t
(** Snapshot of the current matching, sized to the graph's current
    vertex counts — suitable for {!Hopcroft_karp.min_vertex_cover} /
    {!Hopcroft_karp.is_koenig_certificate} certification. *)
