(* One scheduling shard: a slice [lo, hi) of the resource space, a
   bounded inbox, and a live engine stepped by a worker domain.

   The owning worker is the only consumer of the inbox and the only
   writer of the engine, and the I/O domain is the only producer of the
   inbox and the only consumer of the outbox, so both channels run on
   the SPSC fast path and everything else here is single-threaded.
   Shard-local metrics live in a private registry (uncontended) that
   the server merges after the workers exit. *)

module Live = Sched.Engine.Live

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

type t = {
  index : int;
  lo : int;
  hi : int;
  inbox : task Chan.t;
  outbox : (int * Protocol.server_msg) Chan.t; (* this shard's own ring *)
  metrics : Obs.Metrics.t;
  depth_gauge : string; (* serve.shard<index>.queue_depth, built once *)
  live : Live.t;
  (* Reply routing: the task of open engine id [i] sits at
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
    depth_gauge = Printf.sprintf "serve.shard%d.queue_depth" index;
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
  Obs.Metrics.incr t.metrics "serve.shard_crashes";
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
      Obs.Metrics.incr t.metrics "serve.outbox_stalls";
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

(* Room for [id]: double the ring, moving ids [low .. id-1] to their
   slots under the new mask. *)
let grow t id =
  let len = Array.length t.tasks in
  let tasks = Array.make (2 * len) dummy_task in
  for i = t.low to id - 1 do
    tasks.(i land ((2 * len) - 1)) <- t.tasks.(i land (len - 1))
  done;
  t.tasks <- tasks

(* The task of terminating id [id], its ring cell reset. *)
let take_task t id =
  let i = id land (Array.length t.tasks - 1) in
  let task = t.tasks.(i) in
  t.tasks.(i) <- dummy_task;
  task

(* A round allocates, per request, its local alternatives and engine
   record, and per reply the message and its outbox pair; the metrics
   are updated once per round. *)
let step_once t =
  let depth = Chan.drain_into t.inbox t.drain_buf in
  let tasks = !(t.drain_buf) in
  let t0 = Obs.Span.start () in
  Obs.Metrics.set t.metrics t.depth_gauge (float_of_int depth);
  Obs.Metrics.observe t.metrics "serve.queue_depth" (float_of_int depth);
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
      t.tasks.(id land (Array.length t.tasks - 1)) <- task
    | Error m ->
      Obs.Metrics.incr t.metrics "serve.rejected.invalid";
      push_reply t task.conn
        (Protocol.Rejected { tag = task.tag; reason = Protocol.Invalid m })
  done;
  if !truncated > 0 then
    Obs.Metrics.incr ~by:!truncated t.metrics "serve.truncated_alternatives";
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
  Obs.Metrics.incr ~by:!served t.metrics "serve.served";
  Obs.Metrics.incr ~by:!expired t.metrics "serve.expired";
  let mask = Array.length t.tasks - 1 in
  let next = Live.submitted t.live in
  while t.low < next && t.tasks.(t.low land mask) == dummy_task do
    t.low <- t.low + 1
  done;
  Obs.Metrics.observe t.metrics "serve.tick_us" (Obs.Span.elapsed t0 *. 1e6);
  Atomic.incr t.stepped

let drained t ~draining =
  Atomic.get draining && Chan.length t.inbox = 0 && Live.pending t.live = 0
