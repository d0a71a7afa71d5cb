(** A scheduling shard: one slice of the resource space.

    The server partitions resources [0 .. n-1] into contiguous slices;
    each shard owns a slice, a bounded inbox (the admission-control
    queue) and a {!Sched.Engine.Live} engine.  A {!Worker} domain owns
    a contiguous run of shards and steps each once per round tick —
    the shard itself is passive.  Requests are routed by their first
    alternative; alternatives that fall outside the owning shard's
    slice are dropped and counted ([serve.truncated_alternatives]) — a
    deliberate trade of choice richness for shared-nothing parallelism
    (see DESIGN.md §4.8).

    Replies go to the shard's own outbox ring, drained by the I/O
    domain.  A full outbox makes the shard stall and retry with
    backpressure (counted as [serve.outbox_stalls]) — a terminal
    response is never dropped, upholding the exactly-one-terminal
    contract.

    Metrics live in a shard-private registry ([serve.served],
    [serve.expired], [serve.rejected.invalid], [serve.outbox_stalls],
    [serve.queue_depth] and [serve.tick_us] histograms, a
    [serve.shard<i>.queue_depth] gauge, plus the engine's own
    [engine.*]); the server merges all shard snapshots after the
    workers exit, which is exact by the registry merge law. *)

type task = {
  conn : int;               (** connection id, for reply routing *)
  tag : int;                (** client's tag, echoed in responses *)
  alternatives : int list;  (** global resource ids; the first one must
                                lie in this shard's slice *)
  deadline : int;
}

type t

val create :
  ?metrics:Obs.Metrics.t ->
  index:int -> lo:int -> hi:int -> d:int -> queue_capacity:int ->
  strategy:Sched.Strategy.factory ->
  outbox:(int * Protocol.server_msg) Chan.t -> unit -> t
(** A shard owning global resources [lo .. hi-1].  [metrics] is the
    shard-private registry (fresh when omitted); the server hands the
    same registry to the strategy factory, so strategy-level counters
    (a cluster session's [cluster.*], a local protocol's [net.*]) are
    merged into the final snapshot with the [serve.*] ones.  The inbox
    is an SPSC ring of [queue_capacity] cells, allocated here: the I/O
    domain produces, the owning worker consumes.
    @raise Invalid_argument if the range is empty or
    [queue_capacity < 1]. *)

val index : t -> int
val owns : t -> int -> bool

val try_admit : t -> task -> bool
(** Push onto the inbox; [false] when the queue is at capacity (the
    caller sends the explicit overload reject).  Producer side of the
    SPSC ring — I/O domain only. *)

val try_admit_many : t -> task array -> off:int -> len:int -> int
(** Push [tasks.(off .. off+len-1)] onto the inbox in order; returns
    how many were accepted (the prefix that fit — the caller sends
    overload rejects for the suffix).  Producer side — I/O domain
    only. *)

val step_once : t -> unit
(** One round: drain the inbox, submit admissions, step the engine,
    push replies.  Owning worker only.  May raise whatever the
    strategy raises — the worker catches, calls {!note_crash} and
    retires the shard. *)

val drained : t -> draining:bool Atomic.t -> bool
(** True once [draining] is set {e and} the inbox is empty {e and}
    every admitted request has reached a terminal outcome. *)

val stepped : t -> int
(** Rounds completed so far (readable from any domain). *)

val has_exited : t -> bool

val mark_exited : t -> unit
(** Owning worker only, exactly once, after the final {!step_once}. *)

val note_crash : t -> exn -> unit
(** Count ([serve.shard_crashes]) and log a strategy crash. *)

val queue_depth : t -> int

val metrics_snapshot : t -> Obs.Metrics.snapshot
(** Stable once {!has_exited}. *)
