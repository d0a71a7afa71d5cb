(* Tests for the core scheduling model: requests, instances, the round
   engine, outcomes and the paper graph. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine
module Outcome = Sched.Outcome
module Strategy = Sched.Strategy
module Rng = Prelude.Rng

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Request *)

let test_request_make () =
  let r = Request.make ~arrival:3 ~alternatives:[ 1; 0 ] ~deadline:4 in
  check Alcotest.int "id unset" (-1) r.Request.id;
  check Alcotest.int "last round" 6 (Request.last_round r);
  check Alcotest.bool "live at arrival" true (Request.is_live r ~round:3);
  check Alcotest.bool "live at last" true (Request.is_live r ~round:6);
  check Alcotest.bool "dead after" false (Request.is_live r ~round:7);
  check Alcotest.bool "dead before" false (Request.is_live r ~round:2);
  check Alcotest.bool "has alt" true (Request.has_alternative r 0);
  check Alcotest.bool "no alt" false (Request.has_alternative r 2);
  (* order of alternatives is preserved: first alternative is 1 *)
  check Alcotest.int "first alternative" 1 r.Request.alternatives.(0)

let test_request_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "negative arrival" (fun () ->
      Request.make ~arrival:(-1) ~alternatives:[ 0 ] ~deadline:1);
  expect_invalid "zero deadline" (fun () ->
      Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:0);
  expect_invalid "no alternatives" (fun () ->
      Request.make ~arrival:0 ~alternatives:[] ~deadline:1);
  expect_invalid "duplicate alternatives" (fun () ->
      Request.make ~arrival:0 ~alternatives:[ 1; 1 ] ~deadline:1);
  expect_invalid "negative resource" (fun () ->
      Request.make ~arrival:0 ~alternatives:[ -1 ] ~deadline:1)

(* ------------------------------------------------------------------ *)
(* Instance *)

let req ~arrival ~alts ~deadline =
  Request.make ~arrival ~alternatives:alts ~deadline

let test_instance_build () =
  let inst =
    Instance.build ~n_resources:3 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 1; 2 ] ~deadline:1;
        req ~arrival:2 ~alts:[ 2; 0 ] ~deadline:2;
      ]
  in
  check Alcotest.int "n requests" 3 (Instance.n_requests inst);
  check Alcotest.int "horizon" 4 inst.Instance.horizon;
  check Alcotest.int "ids dense" 1 inst.Instance.requests.(1).Request.id;
  check Alcotest.int "arrivals at 0" 2
    (Array.length (Instance.arrivals_at inst 0));
  check Alcotest.int "arrivals at 1" 0
    (Array.length (Instance.arrivals_at inst 1));
  check Alcotest.int "arrivals at 2" 1
    (Array.length (Instance.arrivals_at inst 2));
  check Alcotest.int "arrivals out of range" 0
    (Array.length (Instance.arrivals_at inst 99))

let test_instance_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "resource out of range" (fun () ->
      Instance.build ~n_resources:2 ~d:2
        [ req ~arrival:0 ~alts:[ 0; 2 ] ~deadline:2 ]);
  expect_invalid "deadline exceeds d" (fun () ->
      Instance.build ~n_resources:2 ~d:2
        [ req ~arrival:0 ~alts:[ 0 ] ~deadline:3 ]);
  expect_invalid "out of arrival order" (fun () ->
      Instance.build ~n_resources:2 ~d:2
        [
          req ~arrival:1 ~alts:[ 0 ] ~deadline:2;
          req ~arrival:0 ~alts:[ 1 ] ~deadline:2;
        ])

let test_instance_slots () =
  let inst =
    Instance.build ~n_resources:3 ~d:2
      [ req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2 ]
  in
  check Alcotest.int "total slots" 6 (Instance.total_slots inst);
  let idx = Instance.slot_index inst ~resource:2 ~round:1 in
  check Alcotest.(pair int int) "roundtrip" (2, 1)
    (Instance.slot_of_index inst idx);
  (* all slot indices are distinct *)
  let seen = Hashtbl.create 8 in
  for resource = 0 to 2 do
    for round = 0 to 1 do
      let i = Instance.slot_index inst ~resource ~round in
      check Alcotest.bool "unique" false (Hashtbl.mem seen i);
      Hashtbl.replace seen i ()
    done
  done

let test_instance_restrict_alternatives () =
  let inst =
    Instance.build ~n_resources:4 ~d:2
      [
        req ~arrival:0 ~alts:[ 3; 1; 0 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 2 ] ~deadline:1;
      ]
  in
  let r1 = Instance.restrict_alternatives inst ~max:2 in
  check Alcotest.(list int) "truncated, order kept" [ 3; 1 ]
    (Array.to_list r1.Instance.requests.(0).Request.alternatives);
  check Alcotest.(list int) "short lists untouched" [ 2 ]
    (Array.to_list r1.Instance.requests.(1).Request.alternatives);
  (* optimum can only shrink when choices are removed *)
  check Alcotest.bool "optimum monotone" true
    (Offline.Opt.value r1 <= Offline.Opt.value inst);
  match Instance.restrict_alternatives inst ~max:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max=0 accepted"

let test_outcome_latency () =
  let inst =
    Instance.build ~n_resources:1 ~d:3
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
      ]
  in
  let o = Engine.run inst (Strategies.Global.balance ()) in
  check Alcotest.(list int) "latencies 0,1,2" [ 0; 1; 2 ]
    (List.sort compare (Outcome.latencies o));
  check (Alcotest.float 1e-9) "mean latency" 1.0 (Outcome.mean_latency o);
  let empty = Instance.build ~n_resources:1 ~d:1 [] in
  let oe = Engine.run empty (Strategies.Global.balance ()) in
  check Alcotest.bool "nan when empty" true
    (Float.is_nan (Outcome.mean_latency oe))

let test_instance_concat () =
  let part =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 1; 0 ] ~deadline:2;
      ]
  in
  let whole = Instance.concat [ part; part; part ] in
  check Alcotest.int "requests tripled" 6 (Instance.n_requests whole);
  check Alcotest.int "horizon summed" 9 whole.Instance.horizon;
  (* second copy shifted by the first part's horizon (3) *)
  check Alcotest.int "shifted arrival" 3
    whole.Instance.requests.(2).Request.arrival

(* ------------------------------------------------------------------ *)
(* Engine: protocol validation *)

let one_shot_strategy serves : Strategy.factory =
 fun ~n:_ ~d:_ ->
  {
    Strategy.name = "test";
    step =
      (fun ~round ~arrivals:_ ->
         List.filter_map
           (fun (at, s) -> if at = round then Some s else None)
           serves);
  }

let simple_instance () =
  Instance.build ~n_resources:2 ~d:2
    [
      req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
      req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
    ]

let test_engine_accepts_valid () =
  let inst = simple_instance () in
  let o =
    Engine.run inst
      (one_shot_strategy
         [
           (0, { Strategy.request = 0; resource = 0 });
           (1, { Strategy.request = 1; resource = 1 });
         ])
  in
  check Alcotest.int "served both" 2 o.Outcome.served;
  check Alcotest.bool "consistent" true (Outcome.is_consistent o);
  check Alcotest.int "failed" 0 (Outcome.failed o);
  check Alcotest.(list int) "served ids" [ 0; 1 ] (Outcome.served_ids o)

let expect_protocol_error f =
  match f () with
  | exception Engine.Protocol_error _ -> ()
  | _ -> Alcotest.fail "expected Protocol_error"

let test_engine_rejects_bad_resource () =
  let inst = simple_instance () in
  expect_protocol_error (fun () ->
      Engine.run inst
        (one_shot_strategy [ (0, { Strategy.request = 0; resource = 5 }) ]))

let test_engine_rejects_unknown_request () =
  let inst = simple_instance () in
  expect_protocol_error (fun () ->
      Engine.run inst
        (one_shot_strategy [ (0, { Strategy.request = 9; resource = 0 }) ]))

let test_engine_rejects_double_resource_use () =
  let inst = simple_instance () in
  expect_protocol_error (fun () ->
      Engine.run inst
        (one_shot_strategy
           [
             (0, { Strategy.request = 0; resource = 0 });
             (0, { Strategy.request = 1; resource = 0 });
           ]))

let test_engine_rejects_expired () =
  (* request 0 has window {round 0} only; request 1 extends the horizon
     so the engine actually reaches round 1 *)
  let inst2 =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
      ]
  in
  expect_protocol_error (fun () ->
      Engine.run inst2
        (one_shot_strategy [ (1, { Strategy.request = 0; resource = 0 }) ]))

let test_engine_wasted_duplicates () =
  let inst = simple_instance () in
  let o =
    Engine.run inst
      (one_shot_strategy
         [
           (0, { Strategy.request = 0; resource = 0 });
           (1, { Strategy.request = 0; resource = 1 });
         ])
  in
  check Alcotest.int "served once" 1 o.Outcome.served;
  check Alcotest.int "wasted" 1 o.Outcome.wasted

let test_engine_not_alternative () =
  let inst2 =
    Instance.build ~n_resources:3 ~d:2
      [ req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2 ]
  in
  expect_protocol_error (fun () ->
      Engine.run inst2
        (one_shot_strategy [ (0, { Strategy.request = 0; resource = 2 }) ]))

(* ------------------------------------------------------------------ *)
(* Engine: adaptive mode *)

let test_engine_adaptive_ids_and_instance () =
  (* the adversary emits one request per round; ids must mirror the
     engine's numbering, and the realised instance must match *)
  let emitted = ref [] in
  let adversary ~round ~is_served =
    (* ids are assigned in emission order, so request [round - 1]
       arrived last round *)
    if round > 0 then
      emitted := (round - 1, is_served (round - 1)) :: !emitted;
    [ Request.make ~arrival:round ~alternatives:[ 0; 1 ] ~deadline:2 ]
  in
  let greedy : Strategy.factory =
   fun ~n:_ ~d:_ ->
    let pending = ref [] in
    {
      Strategy.name = "greedy0";
      step =
        (fun ~round ~arrivals ->
           pending := !pending @ Array.to_list arrivals;
           match !pending with
           | r :: rest when Request.is_live r ~round ->
             pending := rest;
             [ { Strategy.request = r.Request.id; resource = 0 } ]
           | _ -> []);
    }
  in
  let o =
    Engine.run_adaptive ~n:2 ~d:2 ~last_arrival_round:5 ~adversary greedy
  in
  check Alcotest.int "six requests realised" 6
    (Instance.n_requests o.Outcome.instance);
  (* every previous round's request had been served when queried *)
  List.iter
    (fun (_, was_served) ->
       check Alcotest.bool "adversary observed service" true was_served)
    !emitted;
  check Alcotest.bool "outcome consistent" true (Outcome.is_consistent o)

let test_engine_adaptive_trailing_empty_rounds () =
  (* an adversary that stops emitting after round 1: the engine must
     still run the remaining rounds (services may land there) and build
     the realised instance from what was actually emitted *)
  let adversary ~round ~is_served:_ =
    if round <= 1 then
      [ Request.make ~arrival:round ~alternatives:[ 0; 1 ] ~deadline:2 ]
    else []
  in
  let greedy : Strategy.factory =
   fun ~n:_ ~d:_ ->
    let pending = ref [] in
    {
      Strategy.name = "greedy0";
      step =
        (fun ~round ~arrivals ->
           pending := !pending @ Array.to_list arrivals;
           match !pending with
           | r :: rest when Request.is_live r ~round ->
             pending := rest;
             [ { Strategy.request = r.Request.id; resource = 0 } ]
           | _ -> []);
    }
  in
  let o =
    Engine.run_adaptive ~n:2 ~d:2 ~last_arrival_round:6 ~adversary greedy
  in
  check Alcotest.int "two requests realised" 2
    (Instance.n_requests o.Outcome.instance);
  check Alcotest.int "both served" 2 o.Outcome.served;
  check Alcotest.bool "consistent" true (Outcome.is_consistent o)

let test_engine_adaptive_no_arrivals_at_all () =
  let adversary ~round:_ ~is_served:_ = [] in
  let o =
    Engine.run_adaptive ~n:3 ~d:2 ~last_arrival_round:4 ~adversary
      (one_shot_strategy [])
  in
  check Alcotest.int "empty instance" 0 (Instance.n_requests o.Outcome.instance);
  check Alcotest.int "nothing served" 0 o.Outcome.served;
  check Alcotest.bool "consistent" true (Outcome.is_consistent o)

let test_engine_adaptive_protocol_errors () =
  (* each illegal-service class must also be caught in adaptive mode,
     where the id space is still growing *)
  let one_request_adversary ~round ~is_served:_ =
    if round = 0 then
      [ Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:1 ]
    else []
  in
  let run strategy =
    Engine.run_adaptive ~n:2 ~d:2 ~last_arrival_round:1
      ~adversary:one_request_adversary strategy
  in
  (* unknown (not yet emitted) request id *)
  expect_protocol_error (fun () ->
      run (one_shot_strategy [ (0, { Strategy.request = 7; resource = 0 }) ]));
  (* expired: request 0's window is round 0 only *)
  expect_protocol_error (fun () ->
      run (one_shot_strategy [ (1, { Strategy.request = 0; resource = 0 }) ]));
  (* foreign resource: 1 is not an alternative of request 0 *)
  expect_protocol_error (fun () ->
      run (one_shot_strategy [ (0, { Strategy.request = 0; resource = 1 }) ]));
  (* resource out of range *)
  expect_protocol_error (fun () ->
      run (one_shot_strategy [ (0, { Strategy.request = 0; resource = 9 }) ]))

let test_engine_adaptive_rejects_wrong_arrival () =
  let adversary ~round ~is_served:_ =
    [ Request.make ~arrival:(round + 1) ~alternatives:[ 0 ] ~deadline:1 ]
  in
  match
    Engine.run_adaptive ~n:1 ~d:1 ~last_arrival_round:1 ~adversary
      (one_shot_strategy [])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_engine_adaptive_rejects_bad_arrival () =
  (* an arrival Live.submit would refuse is rejected when the adversary
     emits it, before any strategy sees it *)
  let expect_rejected name factory proto =
    let adversary ~round ~is_served:_ =
      if round = 0 then [ proto ] else []
    in
    match
      Engine.run_adaptive ~n:2 ~d:2 ~last_arrival_round:0 ~adversary factory
    with
    | exception Invalid_argument m ->
      if not (String.starts_with ~prefix:"Engine.run_adaptive: " m) then
        Alcotest.failf "%s: raised %S" name m
    | _ -> Alcotest.failf "%s: bad arrival accepted" name
  in
  List.iter
    (fun (name, factory) ->
       expect_rejected name factory
         (Request.make ~arrival:0 ~alternatives:[ 0; 5 ] ~deadline:1);
       expect_rejected name factory
         (Request.make ~arrival:0 ~alternatives:[ 0; 1 ] ~deadline:3))
    [
      ("greedy_2choice", Strategies.Twochoice.least_loaded ());
      ("edf", Strategies.Edf.independent ());
      ("balance", Strategies.Global.balance ());
    ]

(* ------------------------------------------------------------------ *)
(* Outcome / Paper_graph *)

let test_paper_graph_shape () =
  let inst =
    Instance.build ~n_resources:3 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 2 ] ~deadline:1;
      ]
  in
  let g = Sched.Paper_graph.of_instance inst in
  (* request 0: 2 alternatives x 2 rounds; request 1: 1 x 1 *)
  check Alcotest.int "edges" 5 (Graph.Bipartite.n_edges g);
  check Alcotest.int "left = requests" 2 (Graph.Bipartite.n_left g);
  check Alcotest.int "right = slots" (Instance.total_slots inst)
    (Graph.Bipartite.n_right g);
  (match Sched.Paper_graph.edge_for g inst ~request:0 ~resource:1 ~round:1 with
   | Some _ -> ()
   | None -> Alcotest.fail "edge should exist");
  (match Sched.Paper_graph.edge_for g inst ~request:1 ~resource:2 ~round:0 with
   | None -> ()
   | Some _ -> Alcotest.fail "edge outside window")

let test_outcome_to_matching () =
  let inst = simple_instance () in
  let o =
    Engine.run inst
      (one_shot_strategy
         [
           (0, { Strategy.request = 0; resource = 0 });
           (0, { Strategy.request = 1; resource = 1 });
         ])
  in
  let g, m = Outcome.to_matching o in
  check Alcotest.bool "valid matching" true (Graph.Matching.is_valid g m);
  check Alcotest.int "two edges" 2 (Graph.Matching.size m)

(* ------------------------------------------------------------------ *)
(* properties: random instances, random greedy strategies *)

let instance_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    int_range 1 4 >>= fun d ->
    int_range 0 40 >>= fun n_req ->
    int_range 0 1000 >>= fun seed ->
    return (n, d, n_req, seed))

(* consecutive arrivals are [0 .. gap-1] rounds apart *)
let build_random ?(gap = 2) (n, d, n_req, seed) =
  let rng = Rng.create ~seed in
  let protos = ref [] in
  let arrival = ref 0 in
  for _ = 1 to n_req do
    arrival := !arrival + Rng.int rng gap;
    let deadline = 1 + Rng.int rng d in
    let a = Rng.int rng n in
    let alts =
      if n > 1 && Rng.bool rng then [ a; (a + 1 + Rng.int rng (n - 1)) mod n ]
      else [ a ]
    in
    protos :=
      Request.make ~arrival:!arrival ~alternatives:alts ~deadline :: !protos
  done;
  Instance.build ~n_resources:n ~d (List.rev !protos)

let instance_arb =
  QCheck.make instance_gen ~print:(fun (n, d, n_req, seed) ->
      Printf.sprintf "n=%d d=%d req=%d seed=%d" n d n_req seed)

(* [arrivals_at] reads a round's requests as one run of the request
   array; it must equal the filter by arrival on every round from -1 to
   the horizon, empty rounds included (gaps of up to 3 rounds). *)
let prop_arrivals_at_filters =
  qtest ~count:300 "arrivals_at = requests filtered by arrival"
    instance_arb (fun spec ->
        let inst = build_random ~gap:4 spec in
        let all = Array.to_list inst.Instance.requests in
        List.for_all
          (fun round ->
             Array.to_list (Instance.arrivals_at inst round)
             = List.filter
                 (fun (r : Request.t) -> r.Request.arrival = round)
                 all)
          (List.init (inst.Instance.horizon + 2) (fun i -> i - 1)))

let prop_engine_consistency_all_strategies =
  qtest ~count:60 "engine outcomes are always consistent" instance_arb
    (fun spec ->
       let inst = build_random spec in
       List.for_all
         (fun factory ->
            let o = Engine.run inst factory in
            Outcome.is_consistent o)
         [
           Strategies.Global.fix ();
           Strategies.Global.current ();
           Strategies.Global.eager ();
           Strategies.Global.balance ();
           Strategies.Edf.independent ();
         ])

let prop_served_never_exceeds_opt =
  qtest ~count:60 "no strategy ever beats the offline optimum" instance_arb
    (fun spec ->
       let inst = build_random spec in
       let opt = Offline.Opt.value inst in
       List.for_all
         (fun factory -> (Engine.run inst factory).Outcome.served <= opt)
         [
           Strategies.Global.fix ();
           Strategies.Global.balance ();
           Strategies.Edf.independent ();
           Localstrat.Local.eager ();
         ])

(* ------------------------------------------------------------------ *)
(* codec: the trace format shared with the wire protocol *)

let test_codec_roundtrip_simple () =
  let inst = simple_instance () in
  let s = Sched.Codec.to_string inst in
  match Sched.Codec.of_string s with
  | Error m -> Alcotest.failf "of_string failed: %s" m
  | Ok inst' ->
    check Alcotest.int "n" inst.Instance.n_resources inst'.Instance.n_resources;
    check Alcotest.int "d" inst.Instance.d inst'.Instance.d;
    check Alcotest.string "canonical" s (Sched.Codec.to_string inst')

let test_codec_rejects () =
  let expect_error what s =
    match Sched.Codec.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected parse error" what
  in
  expect_error "empty" "";
  expect_error "bad version" "instance rsp/9 n=2 d=1 requests=0\nend\n";
  expect_error "count mismatch"
    "instance rsp/1 n=2 d=1 requests=2\nreq 0 0 1\nend\n";
  expect_error "missing end" "instance rsp/1 n=2 d=1 requests=0\n";
  expect_error "negative resource"
    "instance rsp/1 n=2 d=1 requests=1\nreq 0 -1 1\nend\n";
  expect_error "resource out of range"
    "instance rsp/1 n=2 d=1 requests=1\nreq 0 5 1\nend\n";
  expect_error "deadline above d"
    "instance rsp/1 n=2 d=1 requests=1\nreq 0 0 3\nend\n"

let prop_codec_roundtrip =
  qtest ~count:100 "codec round-trips any instance" instance_arb
    (fun spec ->
       let inst = build_random spec in
       let s = Sched.Codec.to_string inst in
       match Sched.Codec.of_string s with
       | Error m -> QCheck.Test.fail_reportf "of_string: %s" m
       | Ok inst' ->
         inst'.Instance.n_resources = inst.Instance.n_resources
         && inst'.Instance.d = inst.Instance.d
         && Sched.Codec.to_string inst' = s
         && Array.for_all2
              (fun (a : Request.t) (b : Request.t) ->
                 a.Request.arrival = b.Request.arrival
                 && a.Request.deadline = b.Request.deadline
                 && a.Request.alternatives = b.Request.alternatives)
              inst.Instance.requests inst'.Instance.requests)

(* The index scanner against the split-based parser it replaced, with
   integer fields narrowed to decimal: same result and the same error
   text — the first bad field, left to right — on any short line over
   the grammar's characters. *)
let model_int f =
  let n = String.length f in
  let digits i =
    i < n && String.for_all (fun c -> c >= '0' && c <= '9')
               (String.sub f i (n - i))
  in
  if digits 0 || (n > 0 && f.[0] = '-' && digits 1) then int_of_string_opt f
  else None

let model_alts s =
  if s = "" then Error "empty alternative list"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest ->
        (match model_int f with
         | Some v when v < 0 -> Error (Printf.sprintf "negative resource %d" v)
         | Some v when List.mem v acc ->
           Error (Printf.sprintf "duplicate resource %d" v)
         | Some v -> go (v :: acc) rest
         | None -> Error (Printf.sprintf "malformed resource %S" f))
    in
    go [] (String.split_on_char ',' s)

let model_req_fields s =
  match String.split_on_char ' ' s with
  | [ first; alts; deadline ] ->
    (match model_int first, model_alts alts, model_int deadline with
     | Some _, Ok _, Some dl when dl < 1 ->
       Error (Printf.sprintf "deadline %d must be >= 1" dl)
     | Some f, Ok alternatives, Some dl -> Ok (f, alternatives, dl)
     | None, _, _ -> Error (Printf.sprintf "malformed tag %S" first)
     | _, Error m, _ -> Error m
     | _, _, None -> Error (Printf.sprintf "malformed deadline %S" deadline))
  | _ -> Error (Printf.sprintf "expected '<tag> <alts> <deadline>': %S" s)

let prop_codec_scanner_matches_model =
  let line =
    QCheck.Gen.(
      string_size
        ~gen:(frequency
                [ (6, char_range '0' '3'); (2, return ','); (2, return ' ');
                  (1, return '-'); (1, return '+'); (1, return 'x') ])
        (int_range 0 14))
  in
  qtest ~count:2000 "request-field scanner matches the split-based model"
    (QCheck.make line ~print:(Printf.sprintf "%S"))
    (fun s ->
       (match
          Sched.Codec.scan_req_fields ~what:"tag" s ~pos:0
            ~stop:(String.length s) (fun f a d -> (f, a, d))
        with
        | fields -> Ok fields
        | exception Sched.Codec.Syntax m -> Error m)
       = model_req_fields s
       && (match
             Sched.Codec.scan_alts s ~pos:0 ~stop:(String.length s)
           with
           | alts -> Ok alts
           | exception Sched.Codec.Syntax m -> Error m)
          = model_alts s)

(* ------------------------------------------------------------------ *)
(* live engine: differential against the batch engine *)

(* Feed an instance's arrival schedule through Engine.Live round by
   round and collect the terminal outcomes. *)
let drive_live inst factory =
  let live =
    Engine.Live.create ~n:inst.Instance.n_resources ~d:inst.Instance.d
      factory
  in
  let served = Hashtbl.create 64 and expired = ref [] in
  let horizon = inst.Instance.horizon in
  (* run d extra rounds so the last arrivals' windows close too *)
  for round = 0 to horizon + inst.Instance.d do
    if round < horizon then
      Array.iter
        (fun (r : Request.t) ->
           match
             Engine.Live.submit live
               ~alternatives:(Array.to_list r.Request.alternatives)
               ~deadline:r.Request.deadline
           with
           | Ok id -> check Alcotest.int "dense ids" r.Request.id id
           | Error m -> Alcotest.failf "submit rejected: %s" m)
        (Instance.arrivals_at inst round);
    let o = Engine.Live.step live in
    check Alcotest.int "round echoed" round o.Engine.Live.round;
    List.iter
      (fun (id, res) -> Hashtbl.replace served id (res, round))
      o.Engine.Live.served;
    expired := o.Engine.Live.expired @ !expired
  done;
  (live, served, !expired)

let prop_live_matches_batch =
  qtest ~count:80 "live engine agrees with the batch engine" instance_arb
    (fun spec ->
       let inst = build_random spec in
       let factory = Strategies.Global.balance () in
       let batch = Engine.run inst factory in
       let live, served, expired = drive_live inst factory in
       (* identical service decisions, request by request *)
       Array.iteri
         (fun id sv ->
            let live_sv = Hashtbl.find_opt served id in
            if sv <> live_sv then
              QCheck.Test.fail_reportf
                "request %d: batch %s, live %s" id
                (match sv with
                 | Some (res, r) -> Printf.sprintf "S%d@%d" res r
                 | None -> "unserved")
                (match live_sv with
                 | Some (res, r) -> Printf.sprintf "S%d@%d" res r
                 | None -> "unserved"))
         batch.Outcome.served_at;
       batch.Outcome.served = Hashtbl.length served
       && List.length expired = Instance.n_requests inst - batch.Outcome.served
       && Engine.Live.pending live = 0
       && Engine.Live.submitted live = Instance.n_requests inst)

let test_live_validation () =
  let live = Engine.Live.create ~n:4 ~d:2 (Strategies.Global.balance ()) in
  (match Engine.Live.submit live ~alternatives:[ 0; 9 ] ~deadline:1 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "resource out of range accepted");
  (match Engine.Live.submit live ~alternatives:[ 0 ] ~deadline:3 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "deadline above d accepted");
  (match Engine.Live.submit live ~alternatives:[] ~deadline:1 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty alternatives accepted");
  check Alcotest.int "nothing admitted" 0 (Engine.Live.pending live);
  match Engine.Live.submit live ~alternatives:[ 1; 2 ] ~deadline:2 with
  | Error m -> Alcotest.failf "valid submit rejected: %s" m
  | Ok id ->
    check Alcotest.int "first id" 0 id;
    let o = Engine.Live.step live in
    check Alcotest.bool "served on first step" true
      (List.mem_assoc 0 o.Engine.Live.served)

(* Sustained 3x overload: the expired outcomes must account for exactly
   the requests the engine could not serve — served + expired conserves
   submitted once every window has closed, expired lists are ascending
   and never name a served request.  Violation-rate scoring
   (Analysis.Slo) is built on this accounting. *)
let test_live_overload_accounting () =
  let n = 4 and d = 3 and rounds = 60 in
  let live = Engine.Live.create ~n ~d (Strategies.Global.balance ()) in
  let served = Hashtbl.create 256 in
  let expired = Hashtbl.create 256 in
  let submitted = ref 0 in
  let absorb (o : Engine.Live.outcome) =
    check Alcotest.bool "expired ids ascending" true
      (List.sort compare o.expired = o.expired);
    List.iter
      (fun (id, _) ->
         check Alcotest.bool "served at most once" false
           (Hashtbl.mem served id);
         Hashtbl.add served id ())
      o.served;
    List.iter
      (fun id ->
         check Alcotest.bool "expired request was never served" false
           (Hashtbl.mem served id);
         check Alcotest.bool "expired at most once" false
           (Hashtbl.mem expired id);
         Hashtbl.add expired id ())
      o.expired
  in
  for round = 0 to rounds - 1 do
    (* 3x capacity: 3n requests per round, pairs rotating with the
       round so every resource stays saturated *)
    for j = 0 to (3 * n) - 1 do
      let a = (round + j) mod n in
      let b = (a + 1 + (j mod (n - 1))) mod n in
      match Engine.Live.submit live ~alternatives:[ a; b ] ~deadline:d with
      | Ok _ -> incr submitted
      | Error m -> Alcotest.failf "overload submit rejected: %s" m
    done;
    absorb (Engine.Live.step live)
  done;
  (* drain: d more rounds with no arrivals close every open window *)
  for _ = 1 to d do
    absorb (Engine.Live.step live)
  done;
  check Alcotest.int "submitted as planned" (3 * n * rounds) !submitted;
  check Alcotest.int "every request reached a terminal outcome"
    !submitted
    (Hashtbl.length served + Hashtbl.length expired);
  check Alcotest.int "nothing left pending" 0 (Engine.Live.pending live);
  check Alcotest.int "submitted counter agrees" !submitted
    (Engine.Live.submitted live);
  (* under saturation the matching serves all n resources every main
     round; drain rounds add at most n * d more *)
  check Alcotest.bool "full utilisation under overload" true
    (let s = Hashtbl.length served in
     s >= n * rounds && s <= n * (rounds + d))

(* Engine and strategy state are bounded by the window: under a steady
   3x overload (n=16, d=4, 48 two-choice submissions a round) the live
   heap at round [rounds] stays within 2x of the heap at [rounds / 10],
   however many requests went through. *)
let live_window_bound ?(rounds = 10_000) factory () =
  let n = 16 and d = 4 in
  let live = Engine.Live.create ~n ~d factory in
  let live_words () = Gc.full_major (); (Gc.stat ()).Gc.live_words in
  let early = ref 0 in
  for round = 1 to rounds do
    for j = 0 to (3 * n) - 1 do
      let a = (round + j) mod n in
      let b = (a + 1 + (j mod (n - 1))) mod n in
      match Engine.Live.submit live ~alternatives:[ a; b ] ~deadline:d with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "submit rejected: %s" m
    done;
    ignore (Engine.Live.step live : Engine.Live.outcome);
    if round = rounds / 10 then early := live_words ()
  done;
  let ratio = float_of_int (live_words ()) /. float_of_int !early in
  (* reading [live] after the measurement keeps the engine reachable *)
  check Alcotest.bool "in flight within the window" true
    (Engine.Live.pending live <= 3 * n * d);
  if ratio > 2. then
    Alcotest.failf "live heap grew %.2fx from round %d to %d" ratio
      (rounds / 10) rounds

(* Minor words a steady-state round allocates per submitted request
   under greedy_2choice (n=16, d=4, 48 two-choice submissions a round,
   deadlines 1..4, so two thirds expire), submission not counted.
   [step_with] with no-op callbacks allocates the arrivals array and
   the strategy's slot probes and service list; [step] adds the
   outcome lists it builds.  Each bound sits just above the measured
   figure, so per-request churn in the round (a list of the queued
   arrivals, a tuple or closure per reply) cannot come back unseen. *)
let live_round_words step =
  let n = 16 and d = 4 and per = 48 and warmup = 100 and rounds = 400 in
  let live =
    Engine.Live.create ~n ~d (Strategies.Twochoice.least_loaded ())
  in
  let words = ref 0. in
  let probe = (let b = Gc.minor_words () in Gc.minor_words () -. b) in
  for round = 1 to warmup + rounds do
    for j = 0 to per - 1 do
      match
        Engine.Live.submit live
          ~alternatives:[ (j + round) mod n; ((7 * j) + round + 1) mod n ]
          ~deadline:(1 + ((j + round) mod d))
      with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "submit rejected: %s" m
    done;
    let before = Gc.minor_words () in
    step live;
    let spent = Gc.minor_words () -. before -. probe in
    if round > warmup then words := !words +. spent
  done;
  !words /. float_of_int (rounds * per)

let test_live_round_words () =
  let pin what bound words =
    if words > bound then
      Alcotest.failf "%s allocates %.2f words per request (bound %.1f)" what
        words bound
  in
  let ignore2 _ _ = () in
  pin "Live.step_with" 5.0
    (live_round_words (fun live ->
         ignore (Engine.Live.step_with live ~served:ignore2 ~expired:ignore)));
  pin "Live.step" 12.5
    (live_round_words (fun live ->
         ignore (Engine.Live.step live : Engine.Live.outcome)))

(* one factory per module that keeps strategy state *)
let window_bound_cases =
  List.map
    (fun (name, rounds, factory) ->
       Alcotest.test_case ("state bounded by the window" ^ name) `Quick
         (live_window_bound ?rounds factory))
    [
      ("", None, Strategies.Twochoice.least_loaded ());
      (": edf", None, Strategies.Edf.independent ());
      (": edf_coord", None, Strategies.Edf.coordinated ());
      (": fix", None, Strategies.Global.fix ());
      (": current", None, Strategies.Global.current ());
      (": local_fix", None, Localstrat.Local.fix ());
      ( ": local_fix@cluster3", Some 2_000,
        Cluster.Session.factory ~strategy:Local_fix ~nodes:3 () );
    ]

(* Slots against a (res, round) Hashtbl model.  The clock [now]
   advances; writes and reads stay in [now .. now + d - 1], frees and
   takes also reach back to [now - d + 1], where the ring must never
   clear the live cell [d] rounds later. *)
let prop_slots_match_model =
  let open QCheck in
  let op = quad small_nat small_nat small_nat small_nat in
  let ops = list_of_size Gen.(0 -- 80) op in
  qtest ~count:300 "slots agree with a hashtable model"
    (triple small_nat small_nat ops) (fun (n, d, ops) ->
      let module Slots = Sched.Slots in
      let n = 1 + (n mod 4) and d = 1 + (d mod 5) in
      let slots = Slots.create ~n ~d ~dummy:(-1) in
      let model = Hashtbl.create 16 in
      let now = ref 0 in
      let ahead x = !now + (x mod d)
      and around x = max 0 (!now + (x mod ((2 * d) - 1)) - (d - 1)) in
      let step i (kind, r, x, y) =
        let res = r mod n in
        match kind mod 10 with
        | 0 | 1 | 2 ->
          Slots.set slots ~res ~round:(ahead x) i;
          Hashtbl.replace model (res, ahead x) i
        | 3 | 4 ->
          let round = around x in
          let want = Hashtbl.find_opt model (res, round) in
          if kind mod 10 = 3 then Slots.free slots ~res ~round
          else if Slots.take slots ~res ~round <> want && round >= !now then
            Test.fail_reportf "take res %d round %d" res round;
          Hashtbl.remove model (res, round)
        | 5 | 6 ->
          let from = ahead x and last = ahead y in
          let free =
            List.init (max 0 (last - from + 1)) (( + ) from)
            |> List.filter (fun r -> not (Hashtbl.mem model (res, r)))
          in
          if Slots.first_free slots ~res ~from ~last <> List.nth_opt free 0
          || Slots.count_free slots ~res ~from ~last <> List.length free
          then Test.fail_reportf "free slots res %d %d..%d" res from last
        | 7 | 8 -> incr now
        | _ -> Slots.clear slots; Hashtbl.reset model
      in
      List.iteri
        (fun i op ->
           step i op;
           for res = 0 to n - 1 do
             for round = !now to !now + d - 1 do
               let want = Hashtbl.find_opt model (res, round) in
               if Slots.find slots ~res ~round <> want then
                 Test.fail_reportf "res %d round %d disagrees" res round
             done
           done)
        ops;
      true)

(* Id_ring against a Hashtbl model: ascending admissions with gaps,
   growing on demand, and departures in any order; every tracked id
   stays in its cell and [trim] lands on the first one still there. *)
let prop_id_ring_match_model =
  let open QCheck in
  let ops = list_of_size Gen.(0 -- 120) (pair small_nat small_nat) in
  qtest ~count:300 "id ring agrees with a hashtable model" ops (fun ops ->
      let module R = Sched.Id_ring in
      let ring = ref (Array.make 4 (-1)) and low = ref 0 and next = ref 0 in
      let model = Hashtbl.create 16 in
      let step (kind, x) =
        if kind mod 3 < 2 then begin
          let id = !next + (x mod 4) in
          if Hashtbl.length model = 0 then low := id;
          while id - !low >= Array.length !ring do
            ring := R.grow !ring ~low:!low ~next:!next (-1)
          done;
          !ring.(R.cell !ring id) <- id;
          Hashtbl.replace model id ();
          next := id + 1
        end
        else begin
          let id = !low + (x mod max 1 (!next - !low)) in
          if Hashtbl.mem model id then begin
            !ring.(R.cell !ring id) <- -1;
            Hashtbl.remove model id
          end;
          low := R.trim !ring ~low:!low ~next:!next (-1)
        end
      in
      List.iter
        (fun op ->
           step op;
           let first = ref !next in
           for id = !low to !next - 1 do
             let held = !ring.(R.cell !ring id) = id in
             if held <> Hashtbl.mem model id then
               Test.fail_reportf "id %d: ring %b, model %b" id held
                 (Hashtbl.mem model id);
             if held && id < !first then first := id
           done;
           if Hashtbl.length model > 0 && !first <> !low then
             Test.fail_reportf "low %d, first tracked %d" !low !first)
        ops;
      true)

let () =
  Alcotest.run "sched"
    [
      ( "request",
        [
          Alcotest.test_case "make" `Quick test_request_make;
          Alcotest.test_case "validation" `Quick test_request_validation;
        ] );
      ( "instance",
        [
          Alcotest.test_case "build" `Quick test_instance_build;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "slots" `Quick test_instance_slots;
          Alcotest.test_case "concat" `Quick test_instance_concat;
          Alcotest.test_case "restrict alternatives" `Quick
            test_instance_restrict_alternatives;
          Alcotest.test_case "latency" `Quick test_outcome_latency;
          prop_arrivals_at_filters;
        ] );
      ( "engine",
        [
          Alcotest.test_case "accepts valid" `Quick test_engine_accepts_valid;
          Alcotest.test_case "rejects bad resource" `Quick
            test_engine_rejects_bad_resource;
          Alcotest.test_case "rejects unknown request" `Quick
            test_engine_rejects_unknown_request;
          Alcotest.test_case "rejects double use" `Quick
            test_engine_rejects_double_resource_use;
          Alcotest.test_case "rejects expired" `Quick test_engine_rejects_expired;
          Alcotest.test_case "counts duplicates as waste" `Quick
            test_engine_wasted_duplicates;
          Alcotest.test_case "rejects non-alternative" `Quick
            test_engine_not_alternative;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "ids and instance" `Quick
            test_engine_adaptive_ids_and_instance;
          Alcotest.test_case "rejects wrong arrival" `Quick
            test_engine_adaptive_rejects_wrong_arrival;
          Alcotest.test_case "trailing empty rounds" `Quick
            test_engine_adaptive_trailing_empty_rounds;
          Alcotest.test_case "no arrivals at all" `Quick
            test_engine_adaptive_no_arrivals_at_all;
          Alcotest.test_case "protocol errors" `Quick
            test_engine_adaptive_protocol_errors;
          Alcotest.test_case "rejects bad arrival" `Quick
            test_engine_adaptive_rejects_bad_arrival;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "paper graph shape" `Quick test_paper_graph_shape;
          Alcotest.test_case "to_matching" `Quick test_outcome_to_matching;
        ] );
      ( "properties",
        [
          prop_engine_consistency_all_strategies;
          prop_served_never_exceeds_opt;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip simple" `Quick
            test_codec_roundtrip_simple;
          Alcotest.test_case "rejects malformed" `Quick test_codec_rejects;
          prop_codec_roundtrip;
          prop_codec_scanner_matches_model;
        ] );
      ( "live",
        [
          Alcotest.test_case "submit validation" `Quick test_live_validation;
          Alcotest.test_case "overload accounting" `Quick
            test_live_overload_accounting;
          prop_live_matches_batch;
          Alcotest.test_case "round allocation per request" `Quick
            test_live_round_words;
        ]
        @ window_bound_cases );
      ("slots", [ prop_slots_match_model; prop_id_ring_match_model ]);
    ]
