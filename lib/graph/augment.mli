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

    Searches are Kuhn DFS with visit stamps and {e saturation pruning}:
    a left vertex visited by a search that failed is matched in every
    maximum matching from then on (DESIGN §4.3.1 has the proof), so it
    is marked dead and every later search skips it.  Each left vertex is
    therefore visited by at most one failed search, and the failed
    searches cost [O(E)] in total over the whole stream.  A search
    allocates nothing unless the graph or its visit trail has outgrown
    this structure's arrays.

    Measured by the bench's [B.scale] scoring table on zoo [mix]
    ([n = 64], [d = 4], 2 000 and 8 000 rounds, 2-vCPU Xeon), pruning
    cut the left-vertex visits per round from 2 566 to 112. The mean
    {!Offline.Opt_stream.feed} fell from 416–486 to 98–113 us per
    round. On perfbench's score-balance, the traced median fell from
    58–79 to 29–41 us. *)

type t

type search_stats = {
  searches : int;  (** augmenting-path searches started on free roots *)
  successes : int; (** searches that grew the matching *)
  warm_hits : int;
      (** successes whose first probed live (not dead) left vertex
          was free — no rematching; [warm_hits / searches] is the
          warm-start hit rate the streaming-optimum metrics report *)
  visited : int;   (** total left vertices stamped across all searches *)
  failed_visits : int;
      (** left vertices stamped by searches that failed; each is dead
          afterwards, so this never exceeds the left vertex count *)
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
    [false] on an already-matched vertex.  A failed search marks every
    left vertex it visited dead ({!is_dead}), which is sound only under
    the append discipline above.
    @raise Invalid_argument if the vertex is out of range. *)

val augment_new_rights : t -> first:int -> int
(** [augment_new_rights t ~first] runs {!augment_from_right} on every
    right vertex in [first .. Bipartite.n_right (graph t) - 1] and
    returns the number of successful augmentations.  Under the module's
    append discipline this restores maximality after a batch of appends.
    @raise Invalid_argument on a negative [first]. *)

val is_dead : t -> int -> bool
(** [is_dead t u]: a failed search visited left vertex [u], so every
    later search skips it.  Under the append discipline [u] is matched
    now and in every maximum matching of the graph.
    @raise Invalid_argument if the vertex is out of range. *)

val matching : t -> Matching.t
(** Snapshot of the current matching, sized to the graph's current
    vertex counts — suitable for {!Hopcroft_karp.min_vertex_cover} /
    {!Hopcroft_karp.is_koenig_certificate} certification. *)
