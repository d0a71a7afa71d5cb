(** Bounded lock-free single-producer/single-consumer FIFO rings for
    the serve data plane.

    The I/O domain pushes admitted requests into a shard's inbox and
    each shard pushes responses into its own outbox; every ring has
    exactly one producer domain and one consumer domain.  Capacity is a
    hard admission-control bound: {!try_push} / {!push_slice} refuse
    instead of blocking or dropping, so the caller can send an explicit
    reject or retry with backpressure.  The ring is allocated at full
    capacity and reused in place, so steady-state traffic through a
    channel allocates nothing ({!drain_into} copies into a caller-owned
    reusable buffer with at most two blits). *)

type 'a t

val create_spsc : capacity:int -> dummy:'a -> 'a t
(** A ring of [capacity] cells seeded with [dummy].  Exactly one domain
    may ever push and exactly one (possibly different) domain may ever
    drain.  The cells are allocated eagerly (there is no lock-free
    grow), so keep the capacity modest; the server accepts at most
    65 536.  @raise Invalid_argument if [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Append; [false] iff the queue is at capacity.  Producer only. *)

val push_slice : 'a t -> 'a array -> off:int -> len:int -> int
(** Append [src.(off .. off+len-1)] in order with one publication of
    the tail; returns how many were accepted (the prefix that fit under
    the capacity — the caller handles the rejected suffix).  Producer
    only.  @raise Invalid_argument on a bad slice. *)

val drain_into : 'a t -> 'a array ref -> int
(** Remove everything, oldest first, into [!dst] (grown geometrically
    when too small, reused otherwise) and return the count.  Cells of
    [!dst] beyond the count are unspecified.  Non-blocking.  Consumer
    only. *)

val length : 'a t -> int
(** Items pushed and not yet drained.  Exact on the producer's and the
    consumer's own side; from either side, a concurrent push or drain
    may not be seen yet. *)
