(** Incremental maximum matching on a bipartite graph grown column by
    column.

    {!Hopcroft_karp} solves a fixed graph; this module owns a graph that
    grows and keeps a maximum matching of it {e while it grows}.  The
    graph is stored the way the streaming offline optimum
    ({!Offline.Opt_stream}) appends it: as one column of edges per right
    vertex (a right-grouped CSR), with an edge's id its position in the
    store.  Two appends exist:

    + {!add_left} adds an isolated left vertex;
    + {!add_right} adds a right vertex {e together with all its edges},
      to left vertices that already exist (a scheduling round's time
      slots arrive together with all edges into them).

    No edge between existing vertices can be added, so the append
    discipline the incremental invariant needs is the only thing the API
    can express.  {!augment} then runs one augmenting-path search per
    right vertex added since its last call, which restores maximality:
    every augmenting path in a bipartite graph has exactly one free
    endpoint per side, any path created by the appends must end at a new
    (free) right vertex, and roots whose search failed can never gain a
    path later (non-revival).  The differential test-suite pins this
    against {!Hopcroft_karp} on hundreds of randomized growth scripts.

    Searches are Kuhn DFS with visit stamps and {e saturation pruning}:
    a left vertex visited by a search that failed is matched in every
    maximum matching from then on (DESIGN §4.3.1 has the proof), so it
    is marked dead and every later search skips it.  Each left vertex is
    therefore visited by at most one failed search, and the failed
    searches cost [O(E)] in total over the whole stream.  A search
    allocates nothing unless its visit trail has outgrown this
    structure's buffer.

    Memory: one word per edge, two per left vertex and one per right
    vertex, in fixed-size chunks, so growth never copies a filled chunk.
    On zoo [mix] ([n = 64], [d = 4], seed 1, 2 000 rounds) the
    streaming optimum holds 10.4 words per request, against 57.4 when
    it grew a {!Bipartite.t} (EXPERIMENTS, "Streaming OPT"). *)

type t

type search_stats = {
  searches : int;
      (** augmenting-path searches: one per right vertex that an
          {!augment} call has reached *)
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

val create : unit -> t
(** An empty graph with an empty matching. *)

val add_left : t -> int
(** Append an isolated left vertex and return its id (the new
    [n_left - 1]).  Allocates nothing in the steady state. *)

val add_right : t -> int array -> pos:int -> len:int -> int
(** [add_right t lefts ~pos ~len] appends a right vertex whose edges go
    to [lefts.(pos) .. lefts.(pos + len - 1)], in that order, and
    returns its id (the new [n_right - 1]).  The edges take the next
    [len] edge ids, in the same order; a search probes them in that
    order.  The array is copied, not kept.
    @raise Invalid_argument, appending nothing, if the slice is out of
    the array's bounds or names a left vertex [>= n_left]. *)

val n_left : t -> int
val n_right : t -> int
val n_edges : t -> int

val augment : t -> int
(** One augmenting-path search from every right vertex added since the
    last call (in id order), flipping each path found; returns the
    number of searches that grew the matching.  A failed search marks
    every left vertex it visited dead ({!is_dead}).  Afterwards the
    matching is maximum. *)

val size : t -> int
(** Current matching size — the running offline optimum when the graph
    is a paper-graph prefix. *)

val stats : t -> search_stats
(** Cumulative search-effort counters since {!create}. *)

val is_dead : t -> int -> bool
(** [is_dead t u]: a failed search visited left vertex [u], so every
    later search skips it; [u] is matched now and in every maximum
    matching of the graph, now and after any later append.
    @raise Invalid_argument if the vertex is out of range. *)

val graph : t -> Bipartite.t
(** A snapshot of the graph as a fixed {!Bipartite.t}: the same vertex
    ids and edge ids (edges added column by column).  Built on demand in
    [O(V + E)], e.g. for König certification at a cut round. *)

val matching : t -> Matching.t
(** Snapshot of the current matching over {!graph}'s vertex and edge
    ids — suitable for {!Hopcroft_karp.min_vertex_cover} /
    {!Hopcroft_karp.is_koenig_certificate} certification. *)
