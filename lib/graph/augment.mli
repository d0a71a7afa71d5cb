(** Incremental maximum matching on a bipartite graph grown column by
    column, holding only what a later search can still reach.

    {!Hopcroft_karp} solves a fixed graph; this module owns a graph that
    grows and keeps a maximum matching of it {e while it grows}.  The
    graph is stored the way the streaming offline optimum
    ({!Offline.Opt_stream}) appends it: as one column of edges per right
    vertex (a right-grouped CSR), with an edge's id its position in the
    store.  Two appends exist:

    + {!add_left} adds an isolated left vertex, open until a given
      epoch;
    + {!add_columns} adds right vertices {e together with all their
      edges}, to left vertices that are still open (a scheduling
      round's time slots arrive together with all edges into them, from
      the requests whose window covers the round).

    No edge between existing vertices can be added, so the append
    discipline the incremental invariant needs is the only thing the API
    can express.  {!augment} then runs one augmenting-path search per
    right vertex added since its last call, which restores maximality:
    every augmenting path created by the appends ends at a new (free)
    right vertex, and roots whose search failed can never gain a path
    later.  The differential test-suite pins this against
    {!Hopcroft_karp} on hundreds of randomized growth scripts.  A left
    vertex a failed search visited is matched in every maximum matching
    for good, so it is marked dead and every later search skips it
    (saturation pruning, DESIGN §4.3.1).

    {!settle} ends an epoch: the lefts whose last epoch it was close,
    and the matching is moved, at the same size, to one in which no
    alternating walk from a matched open left ends at a free closed left
    (DESIGN §4.3.1).  Under that invariant every later search stays in
    the region reachable from the open lefts, which only shrinks apart
    from new vertices, so everything outside it keeps its partner for
    good: [settle] releases the columns older than the oldest right
    vertex the region reaches, and the left vertices older than the
    oldest one such a column names.  Without {!settle} (every left open
    for ever) nothing is released.

    Memory: one word per held edge, three per held left vertex and two
    per held right vertex.  On zoo [mix], [vod] and [overload] ([n = 64],
    [d = 4]) the streaming optimum holds about the same number of words
    after 20 000 rounds as after 2 000 (EXPERIMENTS, "Streaming OPT").
    A search allocates nothing unless its visit trail has outgrown this
    structure's buffer. *)

type t

type search_stats = {
  searches : int;
      (** augmenting-path searches: one per right vertex that an
          {!augment} call has reached *)
  successes : int; (** searches that grew the matching *)
  warm_hits : int;
      (** successes whose first probed left vertex was free — no
          rematching; [warm_hits / searches] is the warm-start hit rate
          the streaming-optimum metrics report *)
  visited : int;   (** left vertices stamped across all augmenting searches *)
  failed_visits : int;
      (** left vertices stamped by augmenting searches that failed; each
          is dead afterwards, so this never exceeds the left vertex
          count *)
  flips : int;
      (** size-preserving flips made by {!settle}: a matched open left
          handed its slot down a walk to a free closed left *)
  settle_visits : int;  (** left vertices stamped by {!settle}'s searches *)
}

val create : unit -> t
(** An empty graph with an empty matching, at epoch 0. *)

val add_left : t -> last:int -> int
(** Append an isolated left vertex, open through epoch [last]
    ([max_int]: for ever), and return its id (the new [n_left - 1]).
    @raise Invalid_argument if [last] is before the current epoch. *)

val add_columns : t -> int array -> ends:int array -> count:int -> unit
(** [add_columns t lefts ~ends ~count] appends [count] right vertices,
    ids [n_right] onwards.  Column [k]'s edges go to [lefts.(i)] for
    [i] from [ends.(k - 1)] (0 for [k = 0]) up to [ends.(k) - 1], in
    that order.  The edges take the next edge ids, in the same order; a
    search probes them in that order.  The arrays are copied, not kept.
    @raise Invalid_argument, appending nothing, if [count] or a column
    end is out of bounds, the ends decrease, or a column names a left
    vertex that does not exist, is no longer held or is closed. *)

val n_left : t -> int
val n_right : t -> int
val n_edges : t -> int
(** Vertices and edges appended since {!create}, held or not. *)

val augment : t -> int
(** One augmenting-path search from every right vertex added since the
    last call (in id order), flipping each path found; returns the
    number of searches that grew the matching.  Afterwards the matching
    is maximum. *)

val settle : t -> unit
(** End the current epoch: close the left vertices whose last epoch it
    is, flip every alternating walk from a matched open left to a free
    closed left (the size is unchanged), and release what no later
    search can reach.  Call it after {!augment}.  Only lefts closing
    free now can end such a walk, so the searches stop once those are
    all matched (at once if there are none); the release point moves
    only after a pass that tried every root, which is forced when the
    last one is 8 epochs old. *)

val epoch : t -> int
(** Epochs ended so far ({!settle} calls). *)

val size : t -> int
(** Current matching size — the running offline optimum when the graph
    is a paper-graph prefix.  Pairs released by {!settle} still count. *)

val first_left : t -> int
(** The oldest left vertex still held: every left vertex below it is
    frozen, matched or not, for good.  A left vertex is released by the
    {!settle} after the one that froze it, so its final {!partner} can
    be read in between. *)

val n_open : t -> int
val open_left : t -> int -> int
(** [open_left t k]: the [k]-th of the [n_open t] left vertices open in
    the current epoch, ascending.  @raise Invalid_argument out of range. *)

val first_right : t -> int
(** The oldest right vertex whose column is still held. *)

val partner : t -> int -> int
(** [partner t u]: the right vertex matched to the held left vertex
    [u], or [-1] if it is free.
    @raise Invalid_argument unless [first_left t <= u < n_left t]. *)

val stats : t -> search_stats
(** Cumulative search-effort counters since {!create}. *)

val is_dead : t -> int -> bool
(** [is_dead t u]: a failed augmenting search visited left vertex [u],
    so every later search skips it; [u] is matched now and in every
    maximum matching of the graph, now and after any later append.
    @raise Invalid_argument unless [first_left t <= u < n_left t]. *)
