type status = Delivered | Bounced | Dead

type 'a message = {
  sender : int;
  dst : int;
  deadline_key : int;
  tagged : bool;
  payload : 'a;
}

(* Per-instance meters are plain refs: a network belongs to one protocol
   run, and its budget accounting (comm_rounds deltas in localstrat) must
   not see traffic from other networks.  The metrics registry only
   receives copies for telemetry — it may be the ambient one, shared by
   every network in the process (and, under the job runner, by every
   domain), so reading budgets back from it would race. *)
type meters = {
  mutable rounds : int;
  mutable sent : int;
  mutable delivered : int;
  mutable bounced : int;
  mutable dropped : int;
}

type t = {
  n : int;
  capacity : int;
  priority : sender:int -> dst:int -> int;
  loss : float;
  loss_rng : Prelude.Rng.t;
  metrics : Obs.Metrics.t;
  meters : meters;
}

let k_rounds = "net.comm_rounds"
let k_sent = "net.sent"
let k_delivered = "net.delivered"
let k_bounced = "net.bounced"
let k_dropped = "net.dropped"

let create ~n ~capacity ?(priority = fun ~sender:_ ~dst:_ -> 0)
    ?(loss = 0.0) ?loss_rng ?metrics () =
  if n < 1 then invalid_arg "Net.create: n must be >= 1";
  if capacity < 1 then invalid_arg "Net.create: capacity must be >= 1";
  if not (loss >= 0.0 && loss <= 1.0) then
    invalid_arg "Net.create: loss out of [0, 1]";
  let loss_rng =
    match loss_rng with
    | Some rng -> rng
    | None -> Prelude.Rng.create ~seed:0
  in
  let metrics =
    match Obs.Metrics.resolve metrics with
    | Some m -> m
    | None -> Obs.Metrics.create ()
  in
  let meters =
    { rounds = 0; sent = 0; delivered = 0; bounced = 0; dropped = 0 }
  in
  { n; capacity; priority; loss; loss_rng; metrics; meters }

let deliver t msgs =
  match msgs with
  | [] -> []
  | _ :: _ ->
    t.meters.rounds <- t.meters.rounds + 1;
    t.meters.sent <- t.meters.sent + List.length msgs;
    Obs.Metrics.incr t.metrics k_rounds;
    Obs.Metrics.incr ~by:(List.length msgs) t.metrics k_sent;
    (* failure injection: drop untagged messages before the mailbox;
       tagged messages keep their delivery guarantee *)
    let dropped = ref 0 in
    let survives m =
      m.tagged || t.loss = 0.0
      || Prelude.Rng.float t.loss_rng 1.0 >= t.loss
      || begin
        incr dropped;
        false
      end
    in
    (* messages are identified by their position in the input list: the
       same (sender, dst) pair may legally appear several times in one
       exchange, and each copy is delivered or bounced on its own.  The
       mailbox rule itself lives in Budget.deliver, shared with the live
       cluster transport. *)
    let envelopes =
      Array.map
        (fun m ->
           if m.dst < 0 || m.dst >= t.n then
             invalid_arg "Net.exchange: destination out of range";
           if survives m then
             Some
               {
                 Budget.b_sender = m.sender;
                 b_dst = m.dst;
                 b_deadline = m.deadline_key;
                 b_tagged = m.tagged;
               }
           else None)
        (Array.of_list msgs)
    in
    let delivered =
      Budget.deliver ~n:t.n ~capacity:t.capacity ~priority:t.priority
        envelopes
    in
    let bounced = ref 0 in
    let results =
      List.mapi
        (fun i m ->
           if delivered.(i) then (m, Delivered)
           else begin
             incr bounced;
             (m, Bounced)
           end)
        msgs
    in
    t.meters.delivered <- t.meters.delivered + (List.length msgs - !bounced);
    t.meters.bounced <- t.meters.bounced + !bounced;
    t.meters.dropped <- t.meters.dropped + !dropped;
    Obs.Metrics.incr ~by:(List.length msgs - !bounced) t.metrics k_delivered;
    Obs.Metrics.incr ~by:!bounced t.metrics k_bounced;
    Obs.Metrics.incr ~by:!dropped t.metrics k_dropped;
    results

let exchange t msgs =
  List.map (fun (m, st) -> (m, st = Delivered)) (deliver t msgs)

let tick t =
  t.meters.rounds <- t.meters.rounds + 1;
  Obs.Metrics.incr t.metrics k_rounds

let comm_rounds t = t.meters.rounds
let messages_sent t = t.meters.sent
let messages_bounced t = t.meters.bounced
let messages_dropped t = t.meters.dropped
let metrics t = t.metrics

let reset_counters t =
  t.meters.rounds <- 0;
  t.meters.sent <- 0;
  t.meters.delivered <- 0;
  t.meters.bounced <- 0;
  t.meters.dropped <- 0
