(* Tests for the cluster tier: ring placement properties, wire grammar
   round-trips, live-path/simulator LDF parity, decision parity with
   Localstrat across node layouts, the Theorem 3.7/3.8 budgets measured
   over the wire, failure/rejoin semantics (zero lost terminals), and
   the serve-mode integration. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine
module Outcome = Sched.Outcome
module Local = Localstrat.Local
module Net = Distnet.Net
module Ring = Cluster.Ring
module Wire = Cluster.Wire
module Transport = Cluster.Transport
module Session = Cluster.Session
module Rng = Prelude.Rng
module Server = Serve.Server
module Client = Serve.Client

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* ring *)

let test_ring_owner_total () =
  let ring = Ring.create ~nodes:[ 0; 1; 2 ] () in
  for res = 0 to 499 do
    let o = Ring.owner ring res in
    if not (List.mem o [ 0; 1; 2 ]) then
      Alcotest.failf "resource %d owned by non-member %d" res o
  done

let test_ring_spread () =
  (* every node of a 3-node ring owns something on a reasonable space *)
  let ring = Ring.create ~nodes:[ 0; 1; 2 ] () in
  let counts = Array.make 3 0 in
  for res = 0 to 199 do
    counts.(Ring.owner ring res) <- counts.(Ring.owner ring res) + 1
  done;
  Array.iteri
    (fun node c ->
       if c = 0 then Alcotest.failf "node %d owns no resources" node)
    counts

let ring_change_gen =
  QCheck.Gen.(
    tup3 (int_range 2 6) (int_range 1 128) (int_range 0 5)
    |> map (fun (nodes, n, victim) -> (nodes, n, victim mod nodes)))

let ring_change_arb =
  QCheck.make ring_change_gen ~print:(fun (nodes, n, victim) ->
      Printf.sprintf "nodes=%d n=%d victim=%d" nodes n victim)

let test_ring_remove_moves_only_victims =
  qtest "removing a node moves only its resources" ring_change_arb
    (fun (nodes, n, victim) ->
       let ring = Ring.create ~nodes:(List.init nodes Fun.id) () in
       let smaller = Ring.remove ring victim in
       List.for_all
         (fun res ->
            if Ring.owner ring res = victim then
              Ring.owner smaller res <> victim
            else Ring.owner smaller res = Ring.owner ring res)
         (List.init n Fun.id))

let test_ring_rejoin_restores_placement =
  qtest "re-adding a removed node restores the original placement"
    ring_change_arb
    (fun (nodes, n, victim) ->
       let ring = Ring.create ~nodes:(List.init nodes Fun.id) () in
       let back = Ring.add (Ring.remove ring victim) victim in
       List.for_all
         (fun res -> Ring.owner back res = Ring.owner ring res)
         (List.init n Fun.id))

let test_ring_moved_is_exact () =
  let ring = Ring.create ~nodes:[ 0; 1; 2; 3 ] () in
  let smaller = Ring.remove ring 2 in
  let moved = Ring.moved ~before:ring ~after:smaller ~n:64 in
  List.iter
    (fun res ->
       check Alcotest.int
         (Printf.sprintf "moved resource %d belonged to the victim" res)
         2 (Ring.owner ring res))
    moved;
  for res = 0 to 63 do
    let did_move = Ring.owner ring res <> Ring.owner smaller res in
    check Alcotest.bool
      (Printf.sprintf "moved list exact at %d" res)
      did_move (List.mem res moved)
  done

(* ------------------------------------------------------------------ *)
(* wire grammar *)

let reqinfo_gen =
  QCheck.Gen.(
    map
      (fun (rid, alts, arrival, deadline) ->
         let alternatives = List.sort_uniq compare alts in
         { Wire.rid; alternatives; arrival; deadline })
      (tup4 (int_range 0 9999)
         (list_size (int_range 1 4) (int_range 0 99))
         (int_range 0 500) (int_range 1 40)))

let env_gen data tagged =
  QCheck.Gen.(
    map
      (fun (sender, dst, key) ->
         let deadline_key = if key = 0 then max_int else key in
         Wire.Data { Wire.sender; dst; deadline_key; tagged; data })
      (tup3 (int_range 0 9999) (int_range 0 99) (int_range 0 2000)))

let wire_gen =
  QCheck.Gen.(
    reqinfo_gen >>= fun ri ->
    tup3 (int_range 0 9999) (int_range 0 99) (int_range 0 500)
    >>= fun (a, b, c) ->
    oneof
      [
        env_gen (Wire.Offer ri) false;
        env_gen (Wire.Probe ri) false;
        env_gen (Wire.Cancel { q = a; old_res = b; old_t = c }) false;
        env_gen (Wire.Rival ri) false;
        env_gen (Wire.Swap { r = a; q = ri }) true;
        env_gen (Wire.Rehome { r = ri; res = b }) false;
        env_gen Wire.Loadq false;
        env_gen (Wire.Assign ri) false;
        return (Wire.Reply (Wire.Accept { q = a; res = b; slot = c }));
        return (Wire.Reply (Wire.Full { q = a; res = b }));
        return (Wire.Reply (Wire.Ack { q = a; res = b }));
        return (Wire.Reply (Wire.Freeat { q = a; res = b; slot = c }));
        return (Wire.Reply (Wire.Served { res = b; round = c; q = a }));
        return (Wire.Reply (Wire.Pong { node = b; round = c }));
        return (Wire.Control (Wire.Hello { node = b }));
        return (Wire.Control (Wire.Ping { round = c }));
        return (Wire.Control (Wire.Join { node = b; round = c }));
        return (Wire.Control (Wire.Handoff { res = b; slots = [] }));
        return
          (Wire.Control
             (Wire.Handoff { res = b; slots = [ (c, ri); (c + 1, ri) ] }));
      ])

let wire_arb = QCheck.make wire_gen ~print:Wire.render

let test_wire_roundtrip =
  qtest ~count:500 "wire messages round-trip" wire_arb (fun msg ->
      match Wire.parse (Wire.render msg) with
      | Ok parsed -> parsed = msg
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_wire_rejects () =
  (match Wire.parse (String.make (Wire.max_line + 1) 'x') with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "oversize line accepted");
  (match Wire.parse "hello rsp/0 3" with
   | Error m ->
     check Alcotest.bool "version named" true
       (String.length m > 0
        && String.index_opt m '0' <> None)
   | Ok _ -> Alcotest.fail "bad hello version accepted");
  (match Wire.parse "join rsp/9 1 4" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad join version accepted");
  List.iter
    (fun line ->
       match Wire.parse line with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%S accepted" line)
    [
      "";
      "bogus 1 2 3";
      "offer 1 2 3";               (* truncated envelope *)
      "offer 1 2 3 u 4";           (* truncated reqinfo *)
      "offer 1 2 3 x 4 0,1 0 2";   (* bad tag flag *)
      "offer -1 2 3 u 4 0,1 0 2";  (* negative field *)
      "offer 1 2 3 u 4 0,0 0 2";   (* duplicate alternatives *)
      "offer 1 2 3 u 4 0,1 0 0";   (* zero deadline *)
      "accept 1 2";                (* arity *)
      "pong 1";
      "handoff 3 0 4 0,1 0";       (* truncated handoff entry *)
    ]

let test_wire_oversize_via_render () =
  (* a handoff big enough to overflow the line budget must be refused
     by parse; render itself stays mechanical *)
  let ri =
    { Wire.rid = 123456; alternatives = [ 10; 20 ]; arrival = 9; deadline = 7 }
  in
  let slots = List.init 4000 (fun i -> (i, ri)) in
  let line = Wire.render (Wire.Control (Wire.Handoff { res = 1; slots })) in
  check Alcotest.bool "line is oversize" true
    (String.length line > Wire.max_line);
  match Wire.parse line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize handoff accepted"

(* ------------------------------------------------------------------ *)
(* live-path parity: the transport's LDF cut is Distnet's (satellite) *)

let parity_gen =
  QCheck.Gen.(
    tup4 (int_range 1 6) (int_range 1 5) (int_range 0 10000)
      (int_range 1 60))

let parity_arb =
  QCheck.make parity_gen ~print:(fun (n, cap, seed, k) ->
      Printf.sprintf "n=%d capacity=%d seed=%d k=%d" n cap seed k)

let test_net_transport_parity =
  qtest ~count:200 "Transport drops exactly what Distnet.Net drops"
    parity_arb
    (fun (n, capacity, seed, k) ->
       let rng = Rng.create ~seed in
       let specs =
         List.init k (fun i ->
             let sender = Rng.int rng 20 in
             let dst = Rng.int rng n in
             let deadline = 1 + Rng.int rng 8 in
             let tagged = Rng.int rng 10 = 0 in
             (i, sender, dst, deadline, tagged))
       in
       let priority ~sender ~dst:_ = sender mod 3 in
       let net = Net.create ~n ~capacity ~priority () in
       let net_msgs =
         List.map
           (fun (i, sender, dst, deadline, tagged) ->
              { Net.sender; dst; deadline_key = deadline; tagged; payload = i })
           specs
       in
       let net_out =
         List.map (fun (_, ok) -> ok) (Net.exchange net net_msgs)
       in
       let transport = Transport.create ~n ~capacity ~priority () in
       let envs =
         List.map
           (fun (_, sender, dst, deadline, tagged) ->
              {
                Wire.sender;
                dst;
                deadline_key = deadline;
                tagged;
                data =
                  Wire.Offer
                    {
                      Wire.rid = sender;
                      alternatives = [ dst ];
                      arrival = 0;
                      deadline;
                    };
              })
           specs
       in
       let transport_out =
         List.map
           (fun (_, st) -> st = Transport.Delivered)
           (Transport.exchange transport
              ~owner:(fun _ -> 0)
              ~alive:(fun _ -> true)
              envs)
       in
       net_out = transport_out)

let test_transport_dead_node_bounces () =
  let transport = Transport.create ~n:4 ~capacity:2 () in
  let env dst =
    {
      Wire.sender = dst;
      dst;
      deadline_key = 5;
      tagged = false;
      data = Wire.Loadq;
    }
  in
  let results =
    Transport.exchange transport
      ~owner:(fun res -> res mod 2)
      ~alive:(fun node -> node = 0)
      [ env 0; env 1; env 2; env 3 ]
  in
  let statuses = List.map snd results in
  check Alcotest.bool "even resources delivered" true
    (List.nth statuses 0 = Transport.Delivered
     && List.nth statuses 2 = Transport.Delivered);
  check Alcotest.bool "odd resources dead" true
    (List.nth statuses 1 = Transport.Dead
     && List.nth statuses 3 = Transport.Dead);
  check Alcotest.int "dead drops counted" 2
    (Transport.dropped_dead transport)

(* ------------------------------------------------------------------ *)
(* decision parity with Localstrat across node layouts *)

let random_instance ~n ~d ~rounds ~load ~seed =
  let rng = Rng.create ~seed in
  Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load ()

let outcomes_equal ~what (a : Outcome.t) (b : Outcome.t) =
  check Alcotest.int (what ^ ": served") a.Outcome.served b.Outcome.served;
  Array.iteri
    (fun id s ->
       if b.Outcome.served_at.(id) <> s then
         Alcotest.failf "%s: request %d served at %s vs %s" what id
           (match s with
            | Some (res, round) -> Printf.sprintf "(%d,%d)" res round
            | None -> "-")
           (match b.Outcome.served_at.(id) with
            | Some (res, round) -> Printf.sprintf "(%d,%d)" res round
            | None -> "-"))
    a.Outcome.served_at

(* an LDF tie-break other than the default, to show parity does not
   hinge on the network's default priority *)
let salted_priority salt ~sender ~dst =
  ((sender * 7919) lxor (dst * 104729) lxor salt) land 3

let test_cluster_matches_local () =
  List.iter
    (fun (pname, priority) ->
       List.iter
         (fun (name, local_factory, strategy) ->
            List.iter
              (fun seed ->
                 let inst =
                   random_instance ~n:9 ~d:4 ~rounds:40 ~load:1.5 ~seed
                 in
                 let reference = Engine.run inst (local_factory priority) in
                 List.iter
                   (fun nodes ->
                      let captured = ref None in
                      let o =
                        Engine.run inst
                          (Session.factory ?priority
                             ~on_create:(fun s -> captured := Some s)
                             ~strategy ~nodes ())
                      in
                      outcomes_equal
                        ~what:
                          (Printf.sprintf "%s %s seed=%d nodes=%d" name pname
                             seed nodes)
                        reference o;
                      check Alcotest.bool "consistent" true
                        (Outcome.is_consistent o);
                      match !captured with
                      | None -> Alcotest.fail "factory never ran"
                      | Some s ->
                        check Alcotest.int
                          (Printf.sprintf "%s nodes=%d: no serve conflicts"
                             name nodes)
                          0 (Session.stats s).Session.serve_conflicts)
                   [ 1; 2; 3; 5 ])
              [ 3; 17 ])
         [
           ("fix", (fun priority -> Local.fix ?priority ()), Session.Local_fix);
           ( "eager",
             (fun priority -> Local.eager ?priority ()),
             Session.Local_eager { compact = false } );
           ( "eager_compact",
             (fun priority -> Local.eager ~compact:true ?priority ()),
             Session.Local_eager { compact = true } );
         ])
    [
      ("default priority", None);
      ("salt 1", Some (salted_priority 1));
      ("salt 6", Some (salted_priority 6));
    ]

(* ------------------------------------------------------------------ *)
(* the theorems, live *)

let test_thm37_live_on_three_nodes () =
  List.iter
    (fun d ->
       let sc, priority = Adversary.Thm37.make ~d ~intervals:6 in
       let metrics = Obs.Metrics.create () in
       let captured = ref None in
       let o =
         Engine.run sc.Adversary.Scenario.instance
           (Session.factory ~metrics ~priority
              ~on_create:(fun s -> captured := Some s)
              ~strategy:Session.Local_fix ~nodes:3 ())
       in
       let opt = Offline.Opt.value sc.Adversary.Scenario.instance in
       check Alcotest.int (Printf.sprintf "live alg d=%d" d) (6 * 2 * d)
         o.Outcome.served;
       check Alcotest.int (Printf.sprintf "opt d=%d" d) (6 * 4 * d) opt;
       let s =
         match !captured with
         | Some s -> Session.stats s
         | None -> Alcotest.fail "factory never ran"
       in
       check Alcotest.int "exactly 2 comm rounds per scheduling round" 2
         s.Session.comm_rounds_max;
       check Alcotest.int "metrics mirror the round budget" 2
         (Obs.Metrics.counter metrics "cluster.comm_rounds_max");
       check Alcotest.int "metrics mirror the serves" (6 * 2 * d)
         (Obs.Metrics.counter metrics "cluster.served");
       check Alcotest.bool "messages bounced under pressure" true
         (s.Session.bounced > 0);
       check Alcotest.int "no serve conflicts" 0 s.Session.serve_conflicts)
    [ 2; 4; 6 ]

let test_eager_budget_live () =
  List.iter
    (fun (compact, bound) ->
       let inst = random_instance ~n:6 ~d:4 ~rounds:60 ~load:1.4 ~seed:77 in
       let captured = ref None in
       let o =
         Engine.run inst
           (Session.factory
              ~on_create:(fun s -> captured := Some s)
              ~strategy:(Session.Local_eager { compact })
              ~nodes:3 ())
       in
       check Alcotest.bool "consistent" true (Outcome.is_consistent o);
       match !captured with
       | None -> Alcotest.fail "factory never ran"
       | Some s ->
         let st = Session.stats s in
         check Alcotest.bool
           (Printf.sprintf "at most %d comm rounds (compact=%b)" bound
              compact)
           true
           (st.Session.comm_rounds_max <= bound))
    [ (false, 9); (true, 8) ]

let test_proxy_global_baseline () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:50 ~load:1.5 ~seed:21 in
  let captured = ref None in
  let o =
    Engine.run inst
      (Session.factory
         ~on_create:(fun s -> captured := Some s)
         ~strategy:Session.Proxy_global ~nodes:3 ())
  in
  check Alcotest.bool "consistent" true (Outcome.is_consistent o);
  check Alcotest.bool "serves something" true (o.Outcome.served > 0);
  match !captured with
  | None -> Alcotest.fail "factory never ran"
  | Some s ->
    let st = Session.stats s in
    check Alcotest.bool "uses at most 2 comm rounds per round" true
      (st.Session.comm_rounds_max <= 2);
    check Alcotest.int "no serve conflicts" 0 st.Session.serve_conflicts

(* ------------------------------------------------------------------ *)
(* failure and rejoin *)

(* Drive a session directly under streaming load, crash one node
   mid-run, rejoin it later, and account for every admitted request:
   exactly one terminal outcome each, every serve inside the request's
   original window.  Messages reach the killed node before detection,
   so every strategy's Dead paths run (for eager: probes, cancels,
   rivals, rehomes and swaps). *)
let kill_and_rejoin strategy =
  let kind = Session.kind_name strategy in
  let n = 12 and d = 6 and nodes = 3 in
  let session = Session.create ~strategy ~nodes ~n ~d () in
  let rng = Rng.create ~seed:42 in
  let windows = Hashtbl.create 512 in (* id -> (arrival, last_round) *)
  let terminals = Hashtbl.create 512 in
  let record_terminal id what round =
    (match Hashtbl.find_opt terminals id with
     | Some prev ->
       Alcotest.failf "request %d got %s after %s" id what prev
     | None -> ());
    Hashtbl.replace terminals id (Printf.sprintf "%s@%d" what round)
  in
  let submit_wave round =
    for _ = 1 to 6 do
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let deadline = 2 + Rng.int rng (d - 1) in
      match Session.submit session ~alternatives:[ a; b ] ~deadline with
      | Ok id -> Hashtbl.replace windows id (round, round + deadline - 1)
      | Error m -> Alcotest.failf "submit: %s" m
    done
  in
  let victim = 1 in
  for round = 0 to 59 do
    if round < 40 then submit_wave round;
    if round = 12 then Session.kill session victim;
    if round = 26 then Session.rejoin session victim;
    let out = Session.step session in
    List.iter
      (fun (id, res) ->
         record_terminal id "served" round;
         let arrival, last = Hashtbl.find windows id in
         if round < arrival || round > last then
           Alcotest.failf
             "%s: request %d served at %d outside its original window %d..%d"
             kind id round arrival last;
         if res < 0 || res >= n then Alcotest.failf "bad resource %d" res)
      out.Session.served;
    List.iter (fun id -> record_terminal id "expired" round) out.Session.expired
  done;
  let check_int what = check Alcotest.int (kind ^ ": " ^ what) in
  let check_true what = check Alcotest.bool (kind ^ ": " ^ what) true in
  check_int "session drained" 0 (Session.pending session);
  Hashtbl.iter
    (fun id _ ->
       if not (Hashtbl.mem terminals id) then
         Alcotest.failf "%s: request %d has no terminal outcome" kind id)
    windows;
  check_int "no extra terminals" (Hashtbl.length windows)
    (Hashtbl.length terminals);
  let s = Session.stats session in
  check_int "one failover" 1 s.Session.failovers;
  check_true "messages reached the dead node" (s.Session.dropped_dead > 0);
  check_int "no serve conflicts" 0 s.Session.serve_conflicts;
  (* fix and proxy hold future slots on the victim when it dies and
     when it returns; eager's phase 2 pulls future slots into the
     current round, and under this load none are left to lose *)
  (match strategy with
   | Session.Local_fix | Session.Proxy_global ->
     check_true "failover readmitted survivors" (s.Session.readmitted > 0);
     check_true "rejoin handed future slots over"
       (s.Session.handoff_slots > 0)
   | Session.Local_eager _ -> ());
  check_true "rejoined node is alive" (Session.node_alive session victim);
  check_true "some requests straddled nodes" (s.Session.straddled > 0);
  check_int "terminal conservation" s.Session.requests
    (s.Session.served + s.Session.expired)

let test_kill_and_rejoin_loses_no_terminal () =
  List.iter kill_and_rejoin
    [
      Session.Local_fix;
      Session.Local_eager { compact = false };
      Session.Local_eager { compact = true };
      Session.Proxy_global;
    ]

let test_layout_invariance_standalone () =
  (* the same submission schedule gives identical outcome sequences on
     every cluster shape: placement cannot change decisions *)
  let run nodes =
    let session =
      Session.create ~strategy:(Session.Local_eager { compact = false })
        ~nodes ~n:8 ~d:4 ()
    in
    let rng = Rng.create ~seed:9 in
    let log = Buffer.create 256 in
    for round = 0 to 29 do
      if round < 20 then
        for _ = 1 to 4 do
          let a = Rng.int rng 8 in
          let b = (a + 1 + Rng.int rng 7) mod 8 in
          match
            Session.submit session ~alternatives:[ a; b ]
              ~deadline:(1 + Rng.int rng 4)
          with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "submit: %s" m
        done;
      let out = Session.step session in
      Buffer.add_string log
        (Printf.sprintf "t%d:%s/%s\n" out.Session.round
           (String.concat ","
              (List.map
                 (fun (id, res) -> Printf.sprintf "%d@%d" id res)
                 out.Session.served))
           (String.concat "," (List.map string_of_int out.Session.expired)))
    done;
    Buffer.contents log
  in
  let reference = run 1 in
  List.iter
    (fun nodes ->
       check Alcotest.string
         (Printf.sprintf "nodes=%d outcome log" nodes)
         reference (run nodes))
    [ 2; 3; 5 ]

let test_session_submit_validation () =
  let s = Session.create ~strategy:Session.Local_fix ~nodes:2 ~n:4 ~d:3 () in
  (match Session.submit s ~alternatives:[ 0; 1 ] ~deadline:3 with
   | Ok 0 -> ()
   | Ok id -> Alcotest.failf "first id should be 0, got %d" id
   | Error m -> Alcotest.failf "valid submit rejected: %s" m);
  List.iter
    (fun (alts, deadline, what) ->
       match Session.submit s ~alternatives:alts ~deadline with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ([ 0; 1 ], 0, "zero deadline");
      ([ 0; 1 ], 4, "deadline beyond d");
      ([ 0; 4 ], 2, "resource out of range");
      ([], 2, "no alternatives");
      ([ 1; 1 ], 2, "duplicate alternatives");
    ];
  (match Session.submit ~id:0 s ~alternatives:[ 0 ] ~deadline:1 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "duplicate id accepted");
  match Session.submit ~id:7 s ~alternatives:[ 0 ] ~deadline:1 with
  | Ok 7 -> ()
  | Ok id -> Alcotest.failf "expected id 7, got %d" id
  | Error m -> Alcotest.failf "explicit id rejected: %s" m

(* ------------------------------------------------------------------ *)
(* serve-mode integration: the cluster as a server strategy *)

let fresh_sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched_cluster_%d_%d.sock" (Unix.getpid ()) !counter)

let with_cluster_server ~nodes ~n ~d f =
  let path = fresh_sock_path () in
  let cfg =
    {
      Server.addr = Server.Unix_sock path;
      n_resources = n;
      d;
      shards = 1;
      domains = 0;
      (* the cluster session owns the whole resource space; the server
         runs it on one shard and the router tier fans out internally *)
      strategy =
        (fun ~shard:_ ~metrics ->
          Session.factory ~metrics ~strategy:Session.Local_fix ~nodes ());
      tick = `Manual;
      queue_capacity = 1024;
      max_batch = 512;
      outbox_capacity = 4096;
      read_timeout = 10.0;
      name = "test-cluster";
    }
  in
  match Server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    let result =
      try f (Server.Unix_sock path)
      with e ->
        Server.drain srv;
        ignore (Server.wait srv);
        raise e
    in
    Server.drain srv;
    let snap = Server.wait srv in
    (try Sys.remove path with Sys_error _ -> ());
    (result, snap)

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter v) -> v
  | Some _ | None -> 0

let test_serve_mode_cluster () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:1.4 ~seed:13 in
  let run nodes =
    let r, snap =
      with_cluster_server ~nodes ~n:8 ~d:4 (fun addr ->
          match Client.open_loop ~addr ~inst ~tick:`Manual () with
          | Error m -> Alcotest.failf "open_loop: %s" m
          | Ok r -> r)
    in
    (Client.render_decisions r, r, snap)
  in
  let decisions2, r, snap = run 2 in
  check Alcotest.int "every submission got exactly one terminal"
    r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.bool "something scheduled" true (r.Client.scheduled > 0);
  check Alcotest.int "cluster serves reached the merged snapshot"
    r.Client.scheduled
    (counter snap "cluster.served");
  check Alcotest.bool "cluster rounds metered" true
    (counter snap "cluster.comm_rounds" > 0);
  let decisions3, _, _ = run 3 in
  check Alcotest.string "decisions byte-identical across node layouts"
    decisions2 decisions3

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "owner total" `Quick test_ring_owner_total;
          Alcotest.test_case "spread" `Quick test_ring_spread;
          test_ring_remove_moves_only_victims;
          test_ring_rejoin_restores_placement;
          Alcotest.test_case "moved exact" `Quick test_ring_moved_is_exact;
        ] );
      ( "wire",
        [
          test_wire_roundtrip;
          Alcotest.test_case "rejects" `Quick test_wire_rejects;
          Alcotest.test_case "oversize handoff" `Quick
            test_wire_oversize_via_render;
        ] );
      ( "transport",
        [
          test_net_transport_parity;
          Alcotest.test_case "dead node bounces" `Quick
            test_transport_dead_node_bounces;
        ] );
      ( "parity",
        [
          Alcotest.test_case "matches Localstrat on every layout" `Slow
            test_cluster_matches_local;
          Alcotest.test_case "layout-invariant outcomes" `Quick
            test_layout_invariance_standalone;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "thm 3.7 live on 3 nodes" `Quick
            test_thm37_live_on_three_nodes;
          Alcotest.test_case "eager budgets live" `Quick
            test_eager_budget_live;
          Alcotest.test_case "proxy-global baseline" `Quick
            test_proxy_global_baseline;
        ] );
      ( "failure",
        [
          Alcotest.test_case "kill and rejoin, no lost terminals" `Quick
            test_kill_and_rejoin_loses_no_terminal;
          Alcotest.test_case "submit validation" `Quick
            test_session_submit_validation;
        ] );
      ( "serve",
        [
          Alcotest.test_case "cluster behind the server" `Quick
            test_serve_mode_cluster;
        ] );
    ]
