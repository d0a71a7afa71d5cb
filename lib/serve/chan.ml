(* Bounded lock-free single-producer/single-consumer FIFO rings for the
   serve data plane.  Each inbox is written only by the I/O domain and
   drained only by the owning worker domain, and each outbox is written
   only by the owning worker and drained only by the I/O domain.

   Head and tail are monotonic [Atomic] counters (length = tail - head,
   cell index = counter mod capacity); the producer owns tail, the
   consumer owns head.  Under the OCaml 5 memory model the [Atomic.set]
   of tail after the plain cell writes publishes them to the consumer
   (and symmetrically head publishes consumption back to the producer),
   so no cell is ever read and written concurrently.  Overflow is the
   producer's signal to apply backpressure explicitly: nothing is ever
   dropped silently.  Consumers poll ([drain_into] is non-blocking); the
   serve loops tick on their own clocks, so no condition variable is
   needed.

   The ring is allocated eagerly at full capacity, since a lock-free
   grow would need its own publication argument; that is why
   construction needs a [dummy] witness and why the server bounds the
   capacity.  Pushes write into the ring in place and [drain_into]
   copies out with at most two [Array.blit]s into the caller's reusable
   buffer, so steady-state traffic allocates nothing. *)

type 'a t = {
  cap : int;
  ring : 'a array;
  head : int Atomic.t; (* consumed count; owned by the consumer *)
  tail : int Atomic.t; (* produced count; owned by the producer *)
}

let create_spsc ~capacity ~dummy =
  if capacity < 1 then invalid_arg "Chan.create_spsc: capacity must be >= 1";
  {
    cap = capacity;
    ring = Array.make capacity dummy;
    head = Atomic.make 0;
    tail = Atomic.make 0;
  }

let try_push c x =
  let tl = Atomic.get c.tail in
  if tl - Atomic.get c.head >= c.cap then false
  else begin
    c.ring.(tl mod c.cap) <- x;
    Atomic.set c.tail (tl + 1);
    true
  end

let push_slice c src ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length src then
    invalid_arg "Chan.push_slice: bad slice";
  let tl = Atomic.get c.tail in
  let accept = min len (c.cap - (tl - Atomic.get c.head)) in
  if accept > 0 then begin
    let at = tl mod c.cap in
    let first = min accept (c.cap - at) in
    Array.blit src off c.ring at first;
    if accept > first then
      Array.blit src (off + first) c.ring 0 (accept - first);
    Atomic.set c.tail (tl + accept)
  end;
  accept

(* Stale ring cells keep references to drained elements until they are
   overwritten — bounded by the capacity, and the serve queues carry
   small messages, so no clearing pass is done here. *)
let drain_into c dst =
  (* Read tail first: anything the producer published before that read
     is fully visible.  New pushes racing in after the read are simply
     left for the next poll. *)
  let tl = Atomic.get c.tail in
  let h = Atomic.get c.head in
  let count = tl - h in
  if count > 0 then begin
    let at = h mod c.cap in
    if Array.length !dst < count then
      dst := Array.make (max count (2 * Array.length !dst)) c.ring.(at);
    let first = min count (c.cap - at) in
    Array.blit c.ring at !dst 0 first;
    if count > first then Array.blit c.ring 0 !dst first (count - first);
    Atomic.set c.head tl
  end;
  count

(* Racy but monotone-safe: the producer sees free space at most
   understated, the consumer sees pending items at most understated.
   Exact for the owning side. *)
let length c = max 0 (Atomic.get c.tail - Atomic.get c.head)
