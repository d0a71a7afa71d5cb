(** The reqsched scheduling server: sharded live engines behind a
    line-protocol socket.

    Architecture (DESIGN.md §4.8, §4.13): one I/O domain owns the
    listener and every client socket (nonblocking, [select]-driven)
    and applies admission control; [domains] worker domains each drive
    a contiguous slice of the [shards] shards, each of which owns a
    contiguous slice of the resource space and a {!Sched.Engine.Live}
    engine stepped on a round ticker.  Requests are routed to the shard
    owning
    their first alternative through a bounded inbox — a full inbox is an
    immediate, explicit [overload] reject, never a silent drop.  Every
    request goes through one admission step: a [req] line is one
    grouped inbox push, a [batch] line one grouped push per shard
    touched.  Replies flow back through per-shard outbox rings the I/O
    domain merge-flushes every iteration.  Inboxes and outboxes are
    lock-free single-producer/single-consumer rings ({!Chan}).

    Failure isolation: client-side failures (EPIPE, ECONNRESET, abrupt
    EOF with requests in flight, read timeouts) close that connection
    and bump [serve.client_errors] / [serve.read_timeouts]; shard
    domains never observe them.  Responses to vanished clients are
    counted in [serve.responses_dropped].

    Shutdown: {!drain} (the CLI wires SIGINT/SIGTERM to it) closes the
    listener, rejects new submissions as [draining], serves everything
    already admitted to its deadline, then flushes and publishes the
    final merged metrics snapshot. *)

type addr = Tcp of string * int | Unix_sock of string

val addr_of_string : string -> (addr, string) result
(** ["tcp:HOST:PORT"] or ["unix:PATH"]. *)

val addr_to_string : addr -> string

type config = {
  addr : addr;
  n_resources : int;
  d : int;                 (** nominal deadline; per-request deadlines
                               above it are rejected as invalid *)
  shards : int;            (** clamped to [1 .. n_resources] *)
  domains : int;           (** worker domains stepping the shards,
                               clamped to [1 .. shards]; [<= 0] means
                               one domain per shard (the pre-[--domains]
                               behaviour).  Manual-tick decisions are
                               byte-identical at any domain count. *)
  strategy : shard:int -> metrics:Obs.Metrics.t -> Sched.Strategy.factory;
      (** per-shard factory, so randomised strategies can be seeded per
          shard instead of sharing state across domains.  [metrics] is
          the shard's private registry (merged into the final snapshot
          when the server finishes) — the hook strategy-level
          instrumentation rides on: a cluster session records its
          [cluster.*] counters there, a local protocol its [net.*]. *)
  tick : [ `Every of float | `Manual ];
      (** [`Every dt]: a round every [dt] seconds (real time; {!start}
          refuses a [dt] that is not finite and [> 0]).
          [`Manual]: rounds advance on wire [tick] messages (logical
          time — what deterministic replay uses). *)
  queue_capacity : int;    (** per-shard inbox bound (admission control),
                               [1 .. max_capacity] *)
  max_batch : int;         (** longest [batch] line accepted; longer
                               batches are rejected as invalid *)
  outbox_capacity : int;   (** per-shard reply ring bound,
                               [1 .. max_capacity]; a full ring stalls
                               the shard with backpressure
                               ([serve.outbox_stalls]) — replies are
                               never dropped *)
  read_timeout : float;    (** idle-connection cutoff in seconds;
                               [<= 0.] disables *)
  name : string;           (** server token in the [welcome] line *)
}

val max_capacity : int
(** 65 536: the largest [queue_capacity] and [outbox_capacity]
    {!start} accepts.  Every ring is allocated at full capacity when
    the server starts. *)

type t

val start : ?metrics:Obs.Metrics.t -> config -> (t, string) result
(** Bind, listen and spawn the shard and I/O domains; the listening
    socket is ready when this returns.  [metrics] (or the ambient
    registry) receives the final merged snapshot when the server
    finishes.  Errors are returned, not raised: an unresolvable host,
    a config bound out of range, more worker domains than the runtime's
    domain limit leaves beside the I/O and main domains
    ({!Prelude.Parmap.max_domains} [- 2]; refused before the listener
    opens), or a unix-socket path occupied by a
    non-socket file (pre-existing sockets are reclaimed; anything else
    is refused so it cannot be destroyed). *)

val drain : t -> unit
(** Begin graceful shutdown; idempotent, callable from a signal
    handler (it only flips an atomic). *)

val finished : t -> bool
(** Whether every domain has completed and the final snapshot is
    published.  Poll this from a signal-receiving main thread instead
    of blocking in {!wait}. *)

val wait : t -> Obs.Metrics.snapshot
(** Join all domains (first call; later calls are no-ops) and return
    the final merged metrics snapshot. *)

val n_shards : t -> int
(** Actual shard count after clamping. *)

val n_domains : t -> int
(** Actual worker-domain count after clamping (the I/O domain is not
    counted). *)
