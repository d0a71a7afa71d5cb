(* The router tier: the wire carrier of Localstrat.Machine.  The
   machine takes every decision from what the Transport delivered as
   re-parsed wire bytes; this module routes the messages to the nodes
   hosting their resources, writes each decision the machine announces
   onto the owning node's replica, and keeps what the paper's model
   has no notion of: liveness, failover, rejoin and handoff.  Decisions
   depend only on resources and senders (so they are the simulator's,
   and invariant under node placement); the replicas carry the state
   that is genuinely lost when a node dies. *)

module Request = Sched.Request
module Strategy = Sched.Strategy
module Machine = Localstrat.Machine
module Net = Distnet.Net

type kind =
  | Local_fix
  | Local_eager of { compact : bool }
  | Proxy_global

let kind_name = function
  | Local_fix -> "local_fix"
  | Local_eager { compact = false } -> "local_eager"
  | Local_eager { compact = true } -> "local_eager_compact"
  | Proxy_global -> "proxy_global"

let kinds =
  [
    (Local_fix, "Thm 3.7: 2 comm rounds, 2-competitive");
    (Local_eager { compact = false }, "Thm 3.8: 9 comm rounds");
    (Local_eager { compact = true }, "8 comm rounds at mailbox capacity 2d-2");
    (Proxy_global, "router-probe baseline");
  ]

let kind_of_name name =
  (* hyphens and underscores are interchangeable ("proxy-global") *)
  let canon = String.map (function '-' -> '_' | c -> c) name in
  match List.find_opt (fun (k, _) -> kind_name k = canon) kinds with
  | Some (k, _) -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown cluster strategy %S (expected one of: %s)" name
         (String.concat ", " (List.map (fun (k, _) -> kind_name k) kinds)))

type stats = {
  scheduling_rounds : int;
  comm_rounds_total : int;
  comm_rounds_max : int;
  messages : int;
  bounced : int;
  dropped_dead : int;
  replies : int;
  ctrl_msgs : int;
  requests : int;
  straddled : int;
  served : int;
  expired : int;
  readmitted : int;
  failovers : int;
  handoffs : int;
  handoff_slots : int;
  serve_conflicts : int;
}

type outcome = {
  round : int;
  served : (int * int) list;
  expired : int list;
}

(* the session's [cluster.*] counters, bound once at creation *)
type handles = {
  h_requests : Obs.Metrics.counter;
  h_straddle : Obs.Metrics.counter;
  h_served : Obs.Metrics.counter;
  h_expired : Obs.Metrics.counter;
  h_readmitted : Obs.Metrics.counter;
  h_failovers : Obs.Metrics.counter;
  h_handoffs : Obs.Metrics.counter;
  h_handoff_slots : Obs.Metrics.counter;
  h_serve_conflicts : Obs.Metrics.counter;
}

let handles m =
  let c name = Obs.Metrics.register_counter m ("cluster." ^ name) in
  {
    h_requests = c "requests";
    h_straddle = c "straddle";
    h_served = c "served";
    h_expired = c "expired";
    h_readmitted = c "readmitted";
    h_failovers = c "failovers";
    h_handoffs = c "handoffs";
    h_handoff_slots = c "handoff_slots";
    h_serve_conflicts = c "serve_conflicts";
  }

type t = {
  n : int;
  d : int;
  kind : kind;
  fail_after : int;
  metrics : Obs.Metrics.t option;
  handles : handles option;
  transport : Transport.t;
  nodes : Node.t array;
  mutable ring : Ring.t;
  suspected : int array;        (* consecutive missed pongs *)
  confirmed_dead : bool array;  (* the router's view; Node.alive is truth *)
  m : Machine.t;  (* the decision state *)
  mutable round : int;
  mutable queue : Request.t list;  (* reversed pending submissions *)
  mutable readmit : int list;      (* failover re-admissions, newest first *)
  mutable next_id : int;
  mutable sched_rounds : int;
  mutable max_cr : int;
  mutable requests_n : int;
  mutable straddled_n : int;
  mutable served_n : int;
  mutable expired_n : int;
  mutable readmitted_n : int;
  mutable failovers_n : int;
  mutable handoffs_n : int;
  mutable handoff_slots_n : int;
  mutable conflicts_n : int;
}

let met t pick by =
  match t.handles with None -> () | Some h -> Obs.Metrics.add (pick h) by

let create ?metrics ?capacity ?priority ?(fail_after = 2) ~strategy
    ~nodes ~n ~d () =
  if nodes < 1 then invalid_arg "Session.create: nodes < 1";
  if n < 1 then invalid_arg "Session.create: n < 1";
  if d < 1 then invalid_arg "Session.create: d < 1";
  if fail_after < 1 then invalid_arg "Session.create: fail_after < 1";
  let capacity =
    match capacity with
    | Some c ->
      (* the cancellation round is only guaranteed bounce-free at
         capacity >= d (at most d-1 cancels target one resource) *)
      if c < d then invalid_arg "Session.create: capacity < d"
      else c
    | None ->
      (match strategy with
       | Local_eager { compact } -> Machine.capacity ~compact ~d
       | Local_fix | Proxy_global -> d)
  in
  let metrics = Obs.Metrics.resolve metrics in
  let transport = Transport.create ~n ~capacity ?priority ?metrics () in
  let t =
    {
      n;
      d;
      kind = strategy;
      fail_after;
      metrics;
      handles = Option.map handles metrics;
      transport;
      nodes = Array.init nodes (fun id -> Node.create ~id ~n ~d);
      ring = Ring.create ~nodes:(List.init nodes Fun.id) ~n ();
      suspected = Array.make nodes 0;
      confirmed_dead = Array.make nodes false;
      m = Machine.create ~n ~d;
      round = 0;
      queue = [];
      readmit = [];
      next_id = 0;
      sched_rounds = 0;
      max_cr = 0;
      requests_n = 0;
      straddled_n = 0;
      served_n = 0;
      expired_n = 0;
      readmitted_n = 0;
      failovers_n = 0;
      handoffs_n = 0;
      handoff_slots_n = 0;
      conflicts_n = 0;
    }
  in
  (match metrics with
   | Some m -> Obs.Metrics.set m "cluster.nodes" (float_of_int nodes)
   | None -> ());
  Array.iter
    (fun node ->
       ignore
         (Transport.control transport (Wire.Hello { node = Node.id node })))
    t.nodes;
  t

let round t = t.round
let node_alive t k = Node.alive t.nodes.(k)
let owner t res = Ring.owner t.ring res
let node_of t res = t.nodes.(Ring.owner t.ring res)
let pending t = Machine.pending t.m + List.length t.queue

let exchange t envs =
  Transport.exchange t.transport
    ~owner:(fun res -> Ring.owner t.ring res)
    ~alive:(fun k -> Node.alive t.nodes.(k))
    envs

let respond t reply = ignore (Transport.respond t.transport reply)

(* ------------------------------------------------------------------ *)
(* submission *)

let submit t ~alternatives ~deadline =
  if deadline < 1 || deadline > t.d then
    Error (Printf.sprintf "deadline %d outside 1 .. %d" deadline t.d)
  else if List.exists (fun res -> res < 0 || res >= t.n) alternatives then
    Error "alternative resource out of range"
  else
    match
      Request.of_array ~id:t.next_id ~arrival:t.round
        ~alternatives:(Array.of_list alternatives) ~deadline
    with
    | exception Invalid_argument m -> Error m
    | r ->
      t.next_id <- r.Request.id + 1;
      t.queue <- r :: t.queue;
      Ok r.Request.id

(* ------------------------------------------------------------------ *)
(* liveness: ping sweep, failover, rejoin *)

let readmit t id =
  t.readmit <- id :: t.readmit;
  t.readmitted_n <- t.readmitted_n + 1;
  met t (fun h -> h.h_readmitted) 1

let declare_dead t k =
  t.confirmed_dead.(k) <- true;
  t.failovers_n <- t.failovers_n + 1;
  met t (fun h -> h.h_failovers) 1;
  let old_ring = t.ring in
  if List.length (Ring.members t.ring) > 1 && Ring.mem t.ring k then
    t.ring <- Ring.remove t.ring k;
  (* every request assigned to a resource the dead node hosted has lost
     its slot with the node's state: free it and push the survivors
     back through the next round's offer phase, windows untouched *)
  List.iter (readmit t)
    (Machine.evict t.m ~lost:(fun res -> Ring.owner old_ring res = k))

let ping_sweep t =
  Array.iteri
    (fun k node ->
       if not t.confirmed_dead.(k) then begin
         ignore (Transport.control t.transport (Wire.Ping { round = t.round }));
         if Node.alive node then begin
           t.suspected.(k) <- 0;
           respond t (Wire.Pong { node = k; round = t.round })
         end
         else begin
           t.suspected.(k) <- t.suspected.(k) + 1;
           if t.suspected.(k) >= t.fail_after then declare_dead t k
         end
       end)
    t.nodes

let kill t k =
  if k < 0 || k >= Array.length t.nodes then
    invalid_arg "Session.kill: unknown node";
  if not (Node.alive t.nodes.(k)) then
    invalid_arg "Session.kill: node already dead";
  Node.kill t.nodes.(k)

let rejoin t k =
  if k < 0 || k >= Array.length t.nodes then
    invalid_arg "Session.rejoin: unknown node";
  if Node.alive t.nodes.(k) then invalid_arg "Session.rejoin: node is alive";
  Node.revive t.nodes.(k);
  t.suspected.(k) <- 0;
  if t.confirmed_dead.(k) then begin
    t.confirmed_dead.(k) <- false;
    ignore
      (Transport.control t.transport (Wire.Join { node = k; round = t.round }));
    let old_ring = t.ring in
    if not (Ring.mem t.ring k) then t.ring <- Ring.add t.ring k;
    (* every resource that moves back to the rejoined node carries its
       future slots over in an explicit handoff from the survivor that
       hosted them *)
    List.iter
      (fun res ->
         let donor = t.nodes.(Ring.owner old_ring res) in
         if Node.alive donor then begin
           match Node.export donor ~res ~from_round:t.round with
           | [] -> ()
           | slots ->
             (match
                Transport.control t.transport (Wire.Handoff { res; slots })
              with
              | Wire.Handoff { res = res'; slots = slots' } ->
                Node.import t.nodes.(k) ~res:res' slots'
              | _ -> assert false);
             t.handoffs_n <- t.handoffs_n + 1;
             met t (fun h -> h.h_handoffs) 1;
             t.handoff_slots_n <- t.handoff_slots_n + List.length slots;
             met t (fun h -> h.h_handoff_slots) (List.length slots)
         end)
      (Ring.moved ~before:old_ring ~after:t.ring)
  end

(* ------------------------------------------------------------------ *)
(* the machine's wire carrier *)

let to_wire (m : Machine.envelope) =
  {
    Wire.sender = m.Net.sender;
    dst = m.Net.dst;
    deadline_key = m.Net.deadline_key;
    tagged = m.Net.tagged;
    data =
      (match m.Net.payload with
       | Machine.Offer r -> Wire.Offer r
       | Probe r -> Wire.Probe r
       | Cancel { q; old_res; old_t } -> Wire.Cancel { q; old_res; old_t }
       | Rival q -> Wire.Rival q
       | Swap { r; q } -> Wire.Swap { r; q }
       | Rehome { r; res } -> Wire.Rehome { r; res });
  }

let of_wire (e : Wire.env) : Machine.envelope =
  {
    Net.sender = e.Wire.sender;
    dst = e.Wire.dst;
    deadline_key = e.Wire.deadline_key;
    tagged = e.Wire.tagged;
    payload =
      (match e.Wire.data with
       | Wire.Offer r -> Machine.Offer r
       | Probe r -> Probe r
       | Cancel { q; old_res; old_t } -> Cancel { q; old_res; old_t }
       | Rival r -> Rival r
       | Swap { r; q } -> Swap { r; q }
       | Rehome { r; res } -> Rehome { r; res }
       | Loadq | Assign _ ->
         invalid_arg "Session: proxy message in a protocol round");
  }

(* Decisions land on the replica of the node hosting the resource and
   are answered over the wire. *)
let on_event t = function
  | Machine.Accept { r; res; slot } ->
    Node.set_slot (node_of t res) ~res ~round:slot r;
    respond t (Wire.Accept { q = r.Request.id; res; slot })
  | Full { q; res } -> respond t (Wire.Full { q; res })
  | Ack { q; res; slot } ->
    respond t (Wire.Ack { q = q.Request.id; res });
    (* a phase-2 mover's new slot is written at acknowledgment, before
       its cancel commits the move: equivalent, because a cancel never
       loses the capacity contest at capacity >= d and replicas are
       only read at the end of the round *)
    Option.iter
      (fun round ->
         Node.set_slot (node_of t res) ~res ~round q)
      slot
  | Released { res; slot } -> Node.free_slot (node_of t res) ~res ~round:slot
  | Swapped { q; res; round } ->
    Node.set_slot (node_of t res) ~res ~round q

(* The machine claims a serve, the replica confirms it.  A node that
   lost the slot with its state before the router noticed did not
   serve: the request is re-admitted while its window allows, and
   expiry provides the terminal if not. *)
let confirm t ~res ~round id =
  let node = node_of t res in
  let confirmed =
    Node.alive node
    &&
    match Node.take_slot node ~res ~round with
    | Some r when r.Request.id = id -> true
    | Some _ | None ->
      t.conflicts_n <- t.conflicts_n + 1;
      met t (fun h -> h.h_serve_conflicts) 1;
      false
  in
  if confirmed then respond t (Wire.Served { res; round; q = id })
  else if Option.is_some (Machine.find t.m id) then readmit t id;
  confirmed

let carrier t =
  {
    Machine.exchange =
      (fun msgs ->
         List.map (fun (e, st) -> (of_wire e, st))
           (exchange t (List.map to_wire msgs)));
    event = on_event t;
    confirm = confirm t;
  }

(* ------------------------------------------------------------------ *)
(* the proxy-global baseline: probe both loads, assign the earliest *)

let request_env (q : Request.t) dst data =
  {
    Wire.sender = q.Request.id;
    dst;
    deadline_key = Request.last_round q;
    tagged = false;
    data;
  }

let proxy_tick t ~round =
  let unscheduled =
    Machine.unscheduled t.m
    |> List.sort (fun (a : Request.t) b ->
        let la = Request.last_round a and lb = Request.last_round b in
        if la <> lb then compare la lb else compare a.Request.id b.Request.id)
  in
  (* round 1: load probes to every alternative *)
  let probes =
    List.concat_map
      (fun (q : Request.t) ->
         Array.to_list q.Request.alternatives
         |> List.map (fun res -> request_env q res Wire.Loadq))
      unscheduled
  in
  let results = exchange t probes in
  let offers = Hashtbl.create 32 in
  (* (request, resource) -> earliest free slot *)
  List.iter
    (fun ((e : Wire.env), st) ->
       if st = Transport.Delivered then
         match Machine.find t.m e.Wire.sender with
         | None -> ()
         | Some q ->
           (match Machine.first_free t.m ~round ~res:e.Wire.dst q with
            | Some slot ->
              respond t
                (Wire.Freeat { q = e.Wire.sender; res = e.Wire.dst; slot });
              Hashtbl.replace offers (e.Wire.sender, e.Wire.dst) slot
            | None ->
              respond t (Wire.Full { q = e.Wire.sender; res = e.Wire.dst })))
    results;
  (* round 2: claim the earliest offered slot (first alternative wins
     ties); the resource re-checks, the probe answer may be stale *)
  let assigns =
    List.filter_map
      (fun (q : Request.t) ->
         let best =
           Array.fold_left
             (fun best res ->
                match Hashtbl.find_opt offers (q.Request.id, res) with
                | None -> best
                | Some slot ->
                  (match best with
                   | Some (_, s) when s <= slot -> best
                   | _ -> Some (res, slot)))
             None q.Request.alternatives
         in
         match best with
         | None -> None
         | Some (res, _slot) ->
           Some (request_env q res (Wire.Assign q)))
      unscheduled
  in
  let results = exchange t assigns in
  let ordered =
    List.sort
      (fun ((a : Wire.env), _) (b, _) ->
         if a.Wire.deadline_key <> b.Wire.deadline_key then
           compare a.Wire.deadline_key b.Wire.deadline_key
         else compare a.Wire.sender b.Wire.sender)
      results
  in
  List.iter
    (fun ((e : Wire.env), st) ->
       if st = Transport.Delivered then
         match e.Wire.data with
         | Wire.Assign r ->
           let res = e.Wire.dst in
           on_event t
             (match Machine.try_accept t.m ~round ~res r with
              | Some slot -> Machine.Accept { r; res; slot }
              | None -> Full { q = r.Request.id; res })
         | _ -> ())
    ordered

(* ------------------------------------------------------------------ *)
(* the scheduling round *)

let step t =
  let round = t.round in
  t.sched_rounds <- t.sched_rounds + 1;
  let cr0 = Transport.comm_rounds t.transport in
  ping_sweep t;
  let expired = Machine.expire t.m ~round in
  let arrivals = List.rev t.queue in
  t.queue <- [];
  let straddled = ref 0 in
  List.iter
    (fun (r : Request.t) ->
       Machine.admit t.m r;
       if
         Array.length r.Request.alternatives >= 2
         && owner t r.Request.alternatives.(0)
            <> owner t r.Request.alternatives.(1)
       then incr straddled)
    arrivals;
  let admitted = List.length arrivals in
  t.requests_n <- t.requests_n + admitted;
  t.straddled_n <- t.straddled_n + !straddled;
  if admitted > 0 then met t (fun h -> h.h_requests) admitted;
  if !straddled > 0 then met t (fun h -> h.h_straddle) !straddled;
  let readmits = List.filter_map (Machine.find t.m) (List.rev t.readmit) in
  t.readmit <- [];
  let c = carrier t in
  (match t.kind with
   | Local_fix -> Machine.fix_round t.m c ~round (readmits @ arrivals)
   | Local_eager { compact } -> Machine.eager_round t.m c ~compact ~round
   | Proxy_global -> proxy_tick t ~round);
  let cr = Transport.comm_rounds t.transport - cr0 in
  if cr > t.max_cr then begin
    t.max_cr <- cr;
    match t.metrics with
    | Some m -> Obs.Metrics.set_counter m "cluster.comm_rounds_max" t.max_cr
    | None -> ()
  end;
  let served =
    List.map
      (fun { Strategy.request; resource } -> (request, resource))
      (Machine.collect t.m c ~round)
  in
  t.served_n <- t.served_n + List.length served;
  met t (fun h -> h.h_served) (List.length served);
  t.expired_n <- t.expired_n + List.length expired;
  met t (fun h -> h.h_expired) (List.length expired);
  t.round <- round + 1;
  { round; served; expired }

let stats t =
  {
    scheduling_rounds = t.sched_rounds;
    comm_rounds_total = Transport.comm_rounds t.transport;
    comm_rounds_max = t.max_cr;
    messages = Transport.messages t.transport;
    bounced = Transport.bounced t.transport;
    dropped_dead = Transport.dropped_dead t.transport;
    replies = Transport.replies t.transport;
    ctrl_msgs = Transport.ctrl_msgs t.transport;
    requests = t.requests_n;
    straddled = t.straddled_n;
    served = t.served_n;
    expired = t.expired_n;
    readmitted = t.readmitted_n;
    failovers = t.failovers_n;
    handoffs = t.handoffs_n;
    handoff_slots = t.handoff_slots_n;
    serve_conflicts = t.conflicts_n;
  }

let factory ?metrics ?capacity ?priority ?fail_after ?on_create
    ~strategy ~nodes () : Strategy.factory =
 fun ~n ~d ->
  let t =
    create ?metrics ?capacity ?priority ?fail_after ~strategy ~nodes
      ~n ~d ()
  in
  (match on_create with Some f -> f t | None -> ());
  {
    Strategy.name =
      Printf.sprintf "%s@cluster%d" (kind_name strategy) nodes;
    step =
      (fun ~round ~arrivals ->
         if round <> t.round then
           invalid_arg
             (Printf.sprintf "Session: engine round %d, cluster round %d"
                round t.round);
         Array.iter (fun r -> t.queue <- r :: t.queue) arrivals;
         let out = step t in
         List.map
           (fun (id, resource) -> { Strategy.request = id; resource })
           out.served);
  }
