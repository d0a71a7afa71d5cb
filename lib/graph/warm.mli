(** Warm-start arena for tiered maximum-weight matching.

    A reusable, allocation-free replica of {!Tiered.solve}'s phase rule:
    the same residual SPFA sweep from all free left vertices in the same
    FIFO order, then the same backward searches over tight arcs from the
    best-labelled free right vertices in ascending index — so on any
    graph it returns the {e same matching, edge for edge}, as
    {!Tiered.solve} (the differential suite pins this).  The data
    layout is its own: a left-grouped CSR with flat integer weights, a
    right-grouped CSR of the same edges for the backward searches,
    stamp-guarded flat distance matrices instead of [Lexvec.t option]
    arrays, an int ring buffer for the queue and an explicit stack for
    the searches.  And the labels are packed: {!solve} sizes a balanced
    mixed radix from the round's vertex count and each tier's largest
    |weight|, folds the [k] tiers into as few machine words as keep
    every label, candidate and tight-arc sum exactly representable
    (one word for a balance round at n = 64, d = 4), and runs on those
    words; order and equality on words are order and equality on tier
    vectors, so no decision changes (the argument is in [warm.ml]'s
    header).  One value is created per strategy and re-armed every
    round with {!begin_round}; once its grow-only arrays fit the round,
    {!solve} performs no heap allocation (a test pins this).

    Build discipline: {!add_left} opens a left vertex; subsequent
    {!add_edge} calls attach to it (CSR grouping), with per-edge weights
    zero-initialised and filled by {!set_weight}.  Weight vectors are
    uniform length [k] for the whole round, as {!Tiered} requires. *)

type t

type stats = {
  sweeps : int;
      (** SPFA sweeps run, one per phase including the last one, which
          finds no positive gain (the kernel's
          [strategy.augment_searches]) *)
  augments : int;
      (** augmenting paths flipped; one phase flips many (the kernel's
          [strategy.augments]) *)
  warm_hits : int;
      (** augmentations along a single free edge — no rematching of
          already-placed requests was needed (the kernel's
          [strategy.warm_hits]) *)
  words : int;
      (** machine words per label in the last {!solve} (1 before the
          first): the packed width, at most the round's [k] *)
}

val create : unit -> t

val begin_round : t -> n_right:int -> k:int -> unit
(** Re-arm for a fresh subproblem: no left vertices, no edges, [n_right]
    free right vertices, weight vectors of length [k].  Previously grown
    capacity is retained.
    @raise Invalid_argument on negative [n_right] or [k < 1]. *)

val add_left : t -> int
(** Open the next left vertex and return its index (consecutive from
    0). *)

val add_edge : t -> right:int -> int
(** Add an edge from the most recently added left vertex; returns the
    edge id (consecutive from 0).  Weights start at all-zero.
    @raise Invalid_argument before any {!add_left} or on an
    out-of-range right vertex. *)

val set_weight : t -> int -> int -> int -> unit
(** [set_weight t e j v] sets tier [j] of edge [e] to [v]. *)

val solve : t -> unit
(** Run the tiered max-weight matching to optimality, identical in
    outcome to {!Tiered.solve} on the same graph and weights. *)

val n_left : t -> int

val left_to : t -> int -> int
(** Matched right vertex of a left vertex, or [-1]. *)

val left_edge : t -> int -> int
(** Matched edge of a left vertex, or [-1]. *)

val right_to : t -> int -> int
(** Matched left vertex of a right vertex, or [-1]. *)

val stats : t -> stats
(** Cumulative effort counters since {!create}, and the last packed
    width. *)
