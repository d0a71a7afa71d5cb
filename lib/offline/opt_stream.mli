(** Streaming offline optimum: the per-round OPT prefix curve in one
    incremental pass, in memory bounded by the window.  Its final value
    is {!Opt.value}, the optimum every reported ratio divides by.

    The pass grows the paper graph round by round in
    {!Graph.Augment}'s column store and maintains a maximum matching
    incrementally: feeding round [t] appends the round's [n_resources]
    slots, each with all its edges (from the live earlier requests,
    newest first, then from the round's arrivals), and one
    augmenting-path search per new slot restores maximality.  The whole
    curve costs little more than the final solve alone, instead of
    [horizon] Hopcroft–Karp recomputes; a tracker starts from small
    arrays, so a tiny instance costs about as much as one
    Hopcroft–Karp solve (EXPERIMENTS, "One optimum").

    Memory follows the window, not the run.  Each feed ends with
    {!Graph.Augment.settle}: the requests whose window closed with the
    round expire, the matching is moved (at the same size) to one that
    leaves as many live requests free as it can, and the past that no
    later augmenting path can reach is frozen into the matched count
    and released (DESIGN §4.3.1).  On zoo [mix], [vod] and [overload]
    ([n = 64], [d = 4]) the tracker holds about as many words after
    20 000 rounds as after 2 000.  A feed allocates nothing on the minor
    heap in the steady state.

    Exactness: the prefix value after feeding round [t] is the maximum
    matching of [G] restricted to slots of rounds [0..t] — what an
    offline scheduler could serve {e by the end of round [t]} from the
    requests revealed so far.  After the final round it equals
    {!Opt.expanded} (Hopcroft–Karp, the oracle) exactly; the
    differential property suite pins the two against each other and
    certifies cut rounds with König covers.

    The curve is non-decreasing and each round's increment lies in
    [0 .. n_resources] (a round adds only [n_resources] slots, and every
    new augmenting path ends at one of them). *)

type t
(** A live tracker: the reachable part of the prefix graph, a maximum
    matching of the whole prefix (its frozen part as a count), and the
    live requests. *)

val create : ?metrics:Obs.Metrics.t -> n_resources:int -> unit -> t
(** An empty tracker (round 0 not yet fed).

    [metrics] (or, when omitted, the ambient registry) receives per-feed
    instrumentation: counters [opt_stream.rounds], [opt_stream.arrivals],
    [opt_stream.searches], [opt_stream.augmentations],
    [opt_stream.warm_hits], [opt_stream.search_visits] (augmenting-path
    effort; see {!Graph.Augment.search_stats} — the mean search length is
    [search_visits / searches] and the warm-start hit rate
    [warm_hits / searches]), [opt_stream.flips] (the settle pass's
    size-preserving flips) and histogram [opt_stream.feed_us].
    @raise Invalid_argument if [n_resources < 1]. *)

val feed : t -> Sched.Request.t array -> int
(** Feed the next round's arrivals (possibly [[||]]), advancing the
    clock by one round, and return the updated prefix optimum.  Arrivals
    must carry [arrival] equal to the current round — exactly what
    {!Sched.Instance.arrivals_at} yields round by round, or what an
    online engine observes.  Request ids are not read: arrivals become
    left vertices in feed order.
    @raise Invalid_argument (a message starting [Opt_stream.feed:]) on a
    mistimed arrival or a resource outside [0 .. n_resources-1].  Every
    arrival is checked before anything is appended, so a rejected feed
    leaves the tracker exactly as it was. *)

val opt : t -> int
(** Current prefix optimum (0 before any round is fed). *)

val rounds : t -> int
(** Rounds fed so far. *)

val first_held : t -> int
(** The oldest request whose partner the tracker still holds; requests
    are numbered in feed order.  The slots of every request before it
    are frozen for good, whether it is matched or not. *)

val partner : t -> int -> int
(** [partner t i]: the slot ([round * n_resources + resource]) of
    request [i] in the tracker's current maximum matching, or [-1] if
    the matching leaves it unserved.  Together with the partners
    recorded before each request was frozen, these give the whole
    matching, e.g. for König certification at a cut round.
    @raise Invalid_argument unless [first_held t <= i] and request [i]
    has been fed. *)

val search_stats : t -> Graph.Augment.search_stats
(** Cumulative augmenting-path effort of this tracker, whether or not a
    metrics registry is attached. *)

val prefix_curve : ?metrics:Obs.Metrics.t -> Sched.Instance.t -> int array
(** The values {!feed} returns on a fresh tracker fed the whole
    instance: the full per-round OPT prefix curve, length [horizon], in
    one pass. *)

val naive_prefix_curve : Sched.Instance.t -> int array
(** Reference implementation: one full Hopcroft–Karp solve per prefix,
    [horizon] solves total.  The differential tests pin
    {!prefix_curve} to it; the bench measures the speedup against it. *)
