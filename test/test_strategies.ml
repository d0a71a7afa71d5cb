(* Tests for the five global strategies and the EDF baselines: each
   strategy's defining rule, hand-computed small scenarios, and the
   structural invariants the upper-bound proofs rely on. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine
module Outcome = Sched.Outcome
module Global = Strategies.Global
module Edf = Strategies.Edf
module Rng = Prelude.Rng

let check = Alcotest.check
let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let req ~arrival ~alts ~deadline =
  Request.make ~arrival ~alternatives:alts ~deadline

let served_round (o : Outcome.t) id =
  match o.Outcome.served_at.(id) with
  | Some (_, round) -> round
  | None -> -1

let served_resource (o : Outcome.t) id =
  match o.Outcome.served_at.(id) with
  | Some (res, _) -> res
  | None -> -1

(* ------------------------------------------------------------------ *)
(* A_fix: no rescheduling *)

let test_fix_no_rescheduling_costs () =
  (* round 0: r0 can go to 0 or 1 (bias pushes it to 0);
     round 1: r1 wants resource 0 only, with deadline 1 -- rescheduling
     r0 to resource 1 would save r1, but A_fix must not *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  let bias ~request:(r : Request.t) ~resource ~round =
    if r.Request.arrival = 0 && resource = 0 && round = 1 then 1 else 0
  in
  (* bias lures r0 onto slot (0, round 1), exactly where r1 will need *)
  let o_fix = Engine.run inst (Global.fix ~bias ()) in
  check Alcotest.int "A_fix loses r1" 1 o_fix.Outcome.served;
  (* A_eager may move r0 and save both *)
  let o_eager = Engine.run inst (Global.eager ~bias ()) in
  check Alcotest.int "A_eager serves both" 2 o_eager.Outcome.served

let test_fix_prioritises_new_requests () =
  (* an old failed request competes with a new one for a slot that only
     the new one's rule protects: the maximum-new tier must prefer
     scheduling all arrivals of the round *)
  let inst =
    Instance.build ~n_resources:1 ~d:2
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:2;
      ]
  in
  (* one resource, three identical requests, 2 slots: serves 2 *)
  let o = Engine.run inst (Global.fix ()) in
  check Alcotest.int "capacity-limited" 2 o.Outcome.served

(* ------------------------------------------------------------------ *)
(* A_current: only the current round's slots *)

let test_current_is_myopic () =
  (* r0 (deadline 2) and r1 (deadline 1) both want resource 0 at round
     0; resource 1 is free for r0 at round 1.  A far-sighted strategy
     serves r1 now and r0 later at its other resource; A_current's
     maximum matching on round 0 can serve only one request on
     resource 0 -- but r0 also lists resource 1, so the maximum
     matching serves both immediately.  Make r0 single-choice to
     expose the myopia. *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  (* A_current at round 0: max matching serves one of the two on
     resource 0.  If it serves r0 (bias), r1 expires.  The optimum and
     A_eager serve r1 first and r0 at round 1. *)
  let bias ~request:(r : Request.t) ~resource:_ ~round:_ =
    if r.Request.deadline = 2 then 1 else 0
  in
  let o_current = Engine.run inst (Global.current ~bias ()) in
  check Alcotest.int "A_current biased loses r1" 1 o_current.Outcome.served;
  let o_eager = Engine.run inst (Global.eager ()) in
  check Alcotest.int "A_eager serves both" 2 o_eager.Outcome.served

let test_current_never_plans_ahead () =
  (* nothing to serve now, plenty later: A_current must still serve as
     soon as slots open *)
  let inst =
    Instance.build ~n_resources:1 ~d:3
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
      ]
  in
  let o = Engine.run inst (Global.current ()) in
  check Alcotest.int "one per round" 3 o.Outcome.served;
  check Alcotest.(list int) "rounds 0,1,2"
    [ 0; 1; 2 ]
    (List.sort compare
       (List.map (served_round o) [ 0; 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* A_fix_balance: the balancing function F *)

let test_fix_balance_serves_earliest () =
  (* two resources; resource 0 blocked at round 0 by an earlier
     request; F forces the new request onto resource 1 NOW rather than
     resource 0 later *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
      ]
  in
  let o = Engine.run inst (Global.fix_balance ()) in
  check Alcotest.int "both served" 2 o.Outcome.served;
  check Alcotest.int "r1 on resource 1" 1 (served_resource o 1);
  check Alcotest.int "r1 at round 0" 0 (served_round o 1)

let test_fix_balance_is_lexicographic_not_cardinal () =
  (* F maximisation implies maximum cardinality on the subproblem (see
     DESIGN §4.1): a single new request must never be dropped in
     favour of an earlier placement of another *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
      ]
  in
  let o = Engine.run inst (Global.fix_balance ()) in
  check Alcotest.int "all four served" 4 o.Outcome.served

(* ------------------------------------------------------------------ *)
(* A_eager / A_balance: previously scheduled requests stay scheduled *)

let test_eager_rescues_by_moving () =
  (* same instance as the A_fix test: moving r0 is allowed and saves
     everything, and the previously scheduled r0 is indeed served *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  List.iter
    (fun factory ->
       let o = Engine.run inst factory in
       check Alcotest.int "both served" 2 o.Outcome.served)
    [ Global.eager (); Global.balance () ]

let test_eager_maximises_current_round () =
  (* A_eager prefers serving now; A_balance agrees through F *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [ req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2 ]
  in
  List.iter
    (fun factory ->
       let o = Engine.run inst factory in
       check Alcotest.int "served immediately" 0 (served_round o 0))
    [ Global.eager (); Global.balance () ]

let test_keep_invariant_under_pressure () =
  (* a request scheduled early must not be dropped when a flood of
     later requests arrives (they may displace it in space, not
     existence) *)
  let flood =
    List.init 6 (fun _ -> req ~arrival:1 ~alts:[ 0; 1 ] ~deadline:2)
  in
  let inst =
    Instance.build ~n_resources:2 ~d:3
      (req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:3 :: flood)
  in
  List.iter
    (fun factory ->
       let o = Engine.run inst factory in
       check Alcotest.bool "r0 still served" true
         (o.Outcome.served_at.(0) <> None))
    [ Global.eager (); Global.balance () ]

(* ------------------------------------------------------------------ *)
(* EDF *)

let test_edf_serves_earliest_deadline () =
  let inst =
    Instance.build ~n_resources:1 ~d:3
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Edf.independent ()) in
  check Alcotest.int "tight one first" 0 (served_round o 1);
  check Alcotest.int "loose one later" 1 (served_round o 0)

let test_edf_duplicates_are_wasted () =
  (* two resources both pick the same two-choice request *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Edf.independent ()) in
  check Alcotest.int "one distinct" 1 o.Outcome.served;
  check Alcotest.int "one wasted" 1 o.Outcome.wasted;
  (* the coordinated variant's shared served-bit fixes the collision *)
  let oc = Engine.run inst (Edf.coordinated ()) in
  check Alcotest.int "coordination serves both" 2 oc.Outcome.served;
  check Alcotest.int "nothing wasted" 0 oc.Outcome.wasted

let test_edf_coordinated_skips_served () =
  (* across rounds coordination does help *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:1 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Edf.coordinated ()) in
  check Alcotest.int "coordinated serves all" 3 o.Outcome.served

(* ------------------------------------------------------------------ *)
(* Two-choice greedy baselines *)

let test_twochoice_least_loaded_balances () =
  (* two requests with the same pair: the second must take the other
     resource (resource 0 has one slot fewer after the first) *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Strategies.Twochoice.least_loaded ()) in
  check Alcotest.int "both served" 2 o.Outcome.served;
  check Alcotest.bool "distinct resources" true
    (served_resource o 0 <> served_resource o 1)

let test_twochoice_random_no_retry () =
  (* the random baseline deliberately does not retry: with one full
     resource it can drop requests the others would save *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  let rng = Prelude.Rng.create ~seed:1 in
  let o = Engine.run inst (Strategies.Twochoice.random_choice ~rng ()) in
  check Alcotest.bool "consistent" true (Outcome.is_consistent o);
  check Alcotest.bool "at most capacity" true (o.Outcome.served <= 2)

let test_twochoice_first_fit_order () =
  let inst =
    Instance.build ~n_resources:3 ~d:1
      [
        req ~arrival:0 ~alts:[ 1; 2 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 1; 2 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 1; 0 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Strategies.Twochoice.first_fit ()) in
  (* r0 -> 1, r1 -> 2 (retry), r2 -> 0 (retry) *)
  check Alcotest.int "r0 first alternative" 1 (served_resource o 0);
  check Alcotest.int "r1 retried" 2 (served_resource o 1);
  check Alcotest.int "r2 retried" 0 (served_resource o 2)

(* ------------------------------------------------------------------ *)
(* Bias combinators *)

let dummy_request = req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1

let test_bias_combinators () =
  check Alcotest.int "neutral" 0
    (Strategies.Bias.neutral ~request:dummy_request ~resource:0 ~round:0);
  check Alcotest.int "prefer first" 1
    (Strategies.Bias.prefer_first_alternative ~request:dummy_request
       ~resource:0 ~round:0);
  check Alcotest.int "prefer first (other)" 0
    (Strategies.Bias.prefer_first_alternative ~request:dummy_request
       ~resource:1 ~round:0);
  let sum =
    Strategies.Bias.add
      (Strategies.Bias.scale 10 Strategies.Bias.prefer_first_alternative)
      Strategies.Bias.spread
  in
  let v = sum ~request:dummy_request ~resource:0 ~round:3 in
  check Alcotest.bool "scaled sum in range" true (v >= 10 && v < 18)

let test_bias_random_memoised () =
  let rng = Prelude.Rng.create ~seed:8 in
  let bias = Strategies.Bias.random ~rng ~magnitude:100 in
  let a = bias ~request:dummy_request ~resource:1 ~round:5 in
  let b = bias ~request:dummy_request ~resource:1 ~round:5 in
  check Alcotest.int "memoised" a b;
  let spread_vals =
    List.init 20 (fun round ->
        Strategies.Bias.spread ~request:dummy_request ~resource:0 ~round)
  in
  check Alcotest.bool "spread varies" true
    (List.exists (fun v -> v <> List.hd spread_vals) spread_vals);
  check Alcotest.bool "spread in [0,8)" true
    (List.for_all (fun v -> v >= 0 && v < 8) spread_vals)

(* ------------------------------------------------------------------ *)
(* Remax ablation *)

let test_remax_can_unschedule () =
  (* remax carries the A_remax name and behaves like a maximal
     strategy *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Global.remax ()) in
  check Alcotest.string "name" "A_remax" o.Outcome.strategy_name;
  check Alcotest.bool "consistent" true (Outcome.is_consistent o);
  check Alcotest.int "still serves both here" 2 o.Outcome.served

(* ------------------------------------------------------------------ *)
(* cross-strategy properties on random instances *)

let instance_gen =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    int_range 2 4 >>= fun d ->
    int_range 0 30 >>= fun n_req ->
    int_range 0 10_000 >>= fun seed ->
    return (n, d, n_req, seed))

let instance_arb =
  QCheck.make instance_gen ~print:(fun (n, d, n_req, seed) ->
      Printf.sprintf "n=%d d=%d req=%d seed=%d" n d n_req seed)

let build_random (n, d, n_req, seed) =
  let rng = Rng.create ~seed in
  let protos = ref [] in
  let arrival = ref 0 in
  for _ = 1 to n_req do
    arrival := !arrival + Rng.int rng 2;
    let a = Rng.int rng n in
    let b = (a + 1 + Rng.int rng (n - 1)) mod n in
    protos :=
      Request.make ~arrival:!arrival ~alternatives:[ a; b ] ~deadline:d
      :: !protos
  done;
  Instance.build ~n_resources:n ~d (List.rev !protos)

let prop_no_order1_path_for_maximal =
  qtest "maximal strategies leave no order-1 augmenting path" instance_arb
    (fun spec ->
       let inst = build_random spec in
       List.for_all
         (fun factory ->
            let o = Engine.run inst factory in
            not (Analysis.Audit.has_augmenting_of_order o ~order:1))
         [
           Global.fix ();
           Global.current ();
           Global.fix_balance ();
           Global.eager ();
           Global.balance ();
         ])

let prop_no_order2_path_for_rescheduling =
  qtest "A_eager and A_balance leave no order-2 augmenting path"
    instance_arb (fun spec ->
        let inst = build_random spec in
        List.for_all
          (fun factory ->
             let o = Engine.run inst factory in
             not (Analysis.Audit.has_augmenting_of_order o ~order:2))
          [ Global.eager (); Global.balance () ])

let prop_rescheduling_dominates_fix =
  qtest "A_eager serves at least as many as A_fix" instance_arb (fun spec ->
      let inst = build_random spec in
      let eager = (Engine.run inst (Global.eager ())).Outcome.served in
      let fix = (Engine.run inst (Global.fix ())).Outcome.served in
      eager >= fix)

let prop_within_upper_bounds =
  qtest ~count:40 "every strategy respects its Table 1 upper bound"
    instance_arb (fun (n, d, n_req, seed) ->
        let inst = build_random (n, d, n_req, seed) in
        let opt = Offline.Opt.value inst in
        opt = 0
        || List.for_all
             (fun (factory, ub) ->
                let served = (Engine.run inst factory).Outcome.served in
                Analysis.Slo.ratio_of ~opt ~served
                <= Prelude.Rat.to_float ub +. 1e-9)
             [
               (Global.fix (), Analysis.Bounds.fix_ub ~d);
               (Global.current (), Analysis.Bounds.fix_ub ~d);
               (Global.fix_balance (), Analysis.Bounds.fix_balance_ub ~d);
               (Global.eager (), Analysis.Bounds.eager_ub ~d);
               (Global.balance (), Analysis.Bounds.balance_ub ~d);
             ])

let prop_all_equal_at_d1 =
  (* with deadline 1 every strategy's rule collapses to "maximum
     matching between the live requests and the current round's slots",
     so they all serve the same COUNT (possibly different requests) *)
  qtest ~count:60 "all matching strategies serve equally at d = 1"
    instance_arb (fun (n, _, n_req, seed) ->
        let inst =
          let rng = Rng.create ~seed in
          let protos = ref [] in
          let arrival = ref 0 in
          for _ = 1 to n_req do
            arrival := !arrival + Rng.int rng 2;
            let a = Rng.int rng n in
            let b = (a + 1 + Rng.int rng (n - 1)) mod n in
            protos :=
              Request.make ~arrival:!arrival ~alternatives:[ a; b ]
                ~deadline:1
              :: !protos
          done;
          Instance.build ~n_resources:n ~d:1 (List.rev !protos)
        in
        let counts =
          List.map
            (fun factory -> (Engine.run inst factory).Outcome.served)
            [
              Global.fix ();
              Global.current ();
              Global.fix_balance ();
              Global.eager ();
              Global.balance ();
              Global.remax ();
            ]
        in
        match counts with
        | [] -> true
        | c :: rest -> List.for_all (( = ) c) rest)

let prop_deterministic =
  qtest ~count:30 "strategies are deterministic" instance_arb (fun spec ->
      let inst = build_random spec in
      List.for_all
        (fun mk ->
           let a = Engine.run inst (mk ()) in
           let b = Engine.run inst (mk ()) in
           a.Outcome.served_at = b.Outcome.served_at)
        [
          (fun () -> Global.fix ());
          (fun () -> Global.balance ());
          (fun () -> Edf.independent ());
        ])

let () =
  Alcotest.run "strategies"
    [
      ( "fix",
        [
          Alcotest.test_case "no rescheduling" `Quick
            test_fix_no_rescheduling_costs;
          Alcotest.test_case "new requests maximised" `Quick
            test_fix_prioritises_new_requests;
        ] );
      ( "current",
        [
          Alcotest.test_case "myopic" `Quick test_current_is_myopic;
          Alcotest.test_case "serves as slots open" `Quick
            test_current_never_plans_ahead;
        ] );
      ( "fix_balance",
        [
          Alcotest.test_case "serves earliest" `Quick
            test_fix_balance_serves_earliest;
          Alcotest.test_case "max cardinality via F" `Quick
            test_fix_balance_is_lexicographic_not_cardinal;
        ] );
      ( "eager/balance",
        [
          Alcotest.test_case "rescues by moving" `Quick
            test_eager_rescues_by_moving;
          Alcotest.test_case "maximises current round" `Quick
            test_eager_maximises_current_round;
          Alcotest.test_case "keep invariant" `Quick
            test_keep_invariant_under_pressure;
        ] );
      ( "twochoice",
        [
          Alcotest.test_case "least loaded balances" `Quick
            test_twochoice_least_loaded_balances;
          Alcotest.test_case "random no retry" `Quick
            test_twochoice_random_no_retry;
          Alcotest.test_case "first fit order" `Quick
            test_twochoice_first_fit_order;
        ] );
      ( "bias",
        [
          Alcotest.test_case "combinators" `Quick test_bias_combinators;
          Alcotest.test_case "random memoised" `Quick
            test_bias_random_memoised;
        ] );
      ( "remax",
        [ Alcotest.test_case "ablation strategy" `Quick test_remax_can_unschedule ] );
      ( "edf",
        [
          Alcotest.test_case "earliest deadline first" `Quick
            test_edf_serves_earliest_deadline;
          Alcotest.test_case "duplicates wasted" `Quick
            test_edf_duplicates_are_wasted;
          Alcotest.test_case "coordinated skips served" `Quick
            test_edf_coordinated_skips_served;
        ] );
      ( "properties",
        [
          prop_no_order1_path_for_maximal;
          prop_no_order2_path_for_rescheduling;
          prop_rescheduling_dominates_fix;
          prop_within_upper_bounds;
          prop_all_equal_at_d1;
          prop_deterministic;
        ] );
    ]
