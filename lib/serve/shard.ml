(* One scheduling shard: a slice [lo, hi) of the resource space, a
   bounded inbox, and a live engine stepped by a worker domain.

   The owning worker is the only consumer of the inbox and the only
   writer of the engine, and the I/O domain is the only producer of the
   inbox and the only consumer of the outbox, so both channels run on
   the SPSC fast path and everything else here is single-threaded.
   Shard-local metrics live in a private registry (uncontended) that
   the server merges after the workers exit. *)

module Live = Sched.Engine.Live
module Id_ring = Sched.Id_ring

type task = {
  conn : int;               (* connection id, for reply routing *)
  tag : int;                (* client's tag, echoed in responses *)
  alternatives : int list;  (* global resource ids; alternatives.(0)
                               is in [lo, hi) by routing *)
  deadline : int;
}

let dummy_task = { conn = -1; tag = -1; alternatives = []; deadline = 0 }

(* SPSC rings allocate their full capacity eagerly; past this bound the
   mutex flavour (which grows on demand) is the better trade. *)
let spsc_capacity_limit = 1 lsl 16

(* The shard's metric handles, bound once at creation *)
type meters = {
  depth_gauge : Obs.Metrics.gauge; (* serve.shard<index>.queue_depth *)
  queue_depth : Obs.Metrics.histogram;
  tick_us : Obs.Metrics.histogram;
  served : Obs.Metrics.counter;
  expired : Obs.Metrics.counter;
  rejected_invalid : Obs.Metrics.counter;
  truncated : Obs.Metrics.counter;
  outbox_stalls : Obs.Metrics.counter;
  crashes : Obs.Metrics.counter;
}

let meters m ~index =
  let c = Obs.Metrics.register_counter m
  and h = Obs.Metrics.register_histogram m in
  {
    depth_gauge =
      Obs.Metrics.register_gauge m
        (Printf.sprintf "serve.shard%d.queue_depth" index);
    queue_depth = h "serve.queue_depth";
    tick_us = h "serve.tick_us";
    served = c "serve.served";
    expired = c "serve.expired";
    rejected_invalid = c "serve.rejected.invalid";
    truncated = c "serve.truncated_alternatives";
    outbox_stalls = c "serve.outbox_stalls";
    crashes = c "serve.shard_crashes";
  }

type t = {
  index : int;
  lo : int;
  hi : int;
  inbox : task Chan.t;
  outbox : (int * Protocol.server_msg) Chan.t; (* this shard's own ring *)
  metrics : Obs.Metrics.t;
  meters : meters;
  live : Live.t;
  (* Reply routing: an Id_ring, the task of open engine id [i] at
     [tasks.(i land (length - 1))]; ids [low ..] up to the next fresh
     one are admitted ids, each open or reset to [dummy_task] at its
     terminal.  Live hands out dense ids and every id terminates within
     [d] rounds, so the span covers at most the last [d] rounds of
     admissions, and the length (a power of two) doubles only when the
     span reaches it. *)
  mutable tasks : task array;
  mutable low : int;
  drain_buf : task array ref;        (* reusable inbox drain target *)
  stepped : int Atomic.t;
  exited : bool Atomic.t;
}

let create ?metrics ~index ~lo ~hi ~d ~queue_capacity ~strategy ~outbox () =
  if hi <= lo then invalid_arg "Shard.create: empty resource range";
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let inbox =
    if queue_capacity <= spsc_capacity_limit then
      Chan.create_spsc ~capacity:queue_capacity ~dummy:dummy_task
    else Chan.create ~capacity:queue_capacity
  in
  {
    index;
    lo;
    hi;
    inbox;
    outbox;
    metrics;
    meters = meters metrics ~index;
    live = Live.create ~metrics ~n:(hi - lo) ~d strategy;
    tasks = Array.make 256 dummy_task;
    low = 0;
    drain_buf = ref [||];
    stepped = Atomic.make 0;
    exited = Atomic.make false;
  }

let index t = t.index
let owns t resource = resource >= t.lo && resource < t.hi
let try_admit t task = Chan.try_push t.inbox task
let try_admit_many t tasks ~off ~len = Chan.push_slice t.inbox tasks ~off ~len
let stepped t = Atomic.get t.stepped
let has_exited t = Atomic.get t.exited
let mark_exited t = Atomic.set t.exited true
let queue_depth t = Chan.length t.inbox

(* Snapshot of the shard-private registry; meaningful to merge once the
   shard has exited (counters stop moving). *)
let metrics_snapshot t = Obs.Metrics.snapshot t.metrics

let note_crash t exn =
  (* a crashing strategy must not take the server down: record, report,
     and let the worker keep driving its other shards *)
  Obs.Metrics.add t.meters.crashes 1;
  Printf.eprintf "reqsched serve: shard %d crashed: %s\n%!" t.index
    (Printexc.to_string exn)

(* A full outbox stalls the shard (counted) until the I/O domain drains
   it — a reply is never dropped, because a lost terminal would strand
   its client forever (the exactly-one-terminal contract).  The I/O
   domain drains every outbox on each loop iteration, so the stall is
   bounded by one select timeout. *)
let push_reply t conn msg =
  if not (Chan.try_push t.outbox (conn, msg)) then begin
    let rec retry delay =
      Obs.Metrics.add t.meters.outbox_stalls 1;
      (try Unix.sleepf delay with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not (Chan.try_push t.outbox (conn, msg)) then
        retry (Float.min (delay *. 2.0) 0.002)
    in
    retry 0.00005
  end

(* A task's global alternatives as shard-local ids, in order, in a
   fresh array the admitted request takes over.  Alternatives outside
   this shard's slice cannot be honoured, so they are left out (the
   caller counts them — never silent) and the request is scheduled on
   the rest. *)
let rec count_owned t n = function
  | [] -> n
  | a :: rest -> count_owned t (if owns t a then n + 1 else n) rest

let rec fill_local t local i = function
  | [] -> ()
  | a :: rest ->
    if owns t a then begin
      local.(i) <- a - t.lo;
      fill_local t local (i + 1) rest
    end
    else fill_local t local i rest

(* Room for [id]: ids [low .. id-1] are admitted. *)
let grow t id =
  t.tasks <- Id_ring.grow t.tasks ~low:t.low ~next:id dummy_task

(* The task of terminating id [id], its ring cell reset. *)
let take_task t id =
  let i = Id_ring.cell t.tasks id in
  let task = t.tasks.(i) in
  t.tasks.(i) <- dummy_task;
  task

(* A round allocates, per request, its local alternatives and engine
   record, and per reply the message and its outbox pair; the metrics
   are updated once per round, through handles. *)
let step_once t =
  let depth = Chan.drain_into t.inbox t.drain_buf in
  let tasks = !(t.drain_buf) in
  let t0 = Obs.Span.start () in
  let mt = t.meters in
  Obs.Metrics.put mt.depth_gauge (float_of_int depth);
  Obs.Metrics.record mt.queue_depth (float_of_int depth);
  let truncated = ref 0 in
  for i = 0 to depth - 1 do
    let task = tasks.(i) in
    let owned = count_owned t 0 task.alternatives in
    let local = Array.make owned 0 in
    fill_local t local 0 task.alternatives;
    truncated := !truncated + List.length task.alternatives - owned;
    match Live.submit_array t.live ~alternatives:local ~deadline:task.deadline
    with
    | Ok id ->
      if id - t.low >= Array.length t.tasks then grow t id;
      t.tasks.(Id_ring.cell t.tasks id) <- task
    | Error m ->
      Obs.Metrics.add mt.rejected_invalid 1;
      push_reply t task.conn
        (Protocol.Rejected { tag = task.tag; reason = Protocol.Invalid m })
  done;
  if !truncated > 0 then
    Obs.Metrics.add mt.truncated !truncated;
  let round = Live.round t.live and served = ref 0 and expired = ref 0 in
  ignore
    (Live.step_with t.live
       ~served:(fun id resource ->
           incr served;
           let task = take_task t id in
           push_reply t task.conn
             (Protocol.Scheduled
                { tag = task.tag; round; resource = resource + t.lo }))
       ~expired:(fun id ->
           incr expired;
           let task = take_task t id in
           push_reply t task.conn (Protocol.Expired { tag = task.tag })));
  Obs.Metrics.add mt.served !served;
  Obs.Metrics.add mt.expired !expired;
  t.low <-
    Id_ring.trim t.tasks ~low:t.low ~next:(Live.submitted t.live)
      dummy_task;
  Obs.Metrics.record mt.tick_us (Obs.Span.elapsed t0 *. 1e6);
  Atomic.incr t.stepped

let drained t ~draining =
  Atomic.get draining && Chan.length t.inbox = 0 && Live.pending t.live = 0
