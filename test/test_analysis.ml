(* Tests for the analysis layer: the paper's bound formulas, ratio
   accounting and the augmenting-path audits. *)

module Bounds = Analysis.Bounds
module Rat = Prelude.Rat
module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine

let check = Alcotest.check
let rat = Alcotest.testable Rat.pp Rat.equal

let req ~arrival ~alts ~deadline =
  Request.make ~arrival ~alternatives:alts ~deadline

(* ------------------------------------------------------------------ *)
(* Bounds: spot-check every formula against hand-computed values *)

let test_bounds_table_values () =
  check rat "fix lb d=2" (Rat.make 3 2) (Bounds.fix_lb ~d:2);
  check rat "fix lb d=4" (Rat.make 7 4) (Bounds.fix_lb ~d:4);
  check rat "fix ub = fix lb" (Bounds.fix_lb ~d:7) (Bounds.fix_ub ~d:7);
  check rat "fixbal lb d=2" (Rat.make 4 3) (Bounds.fix_balance_lb ~d:2);
  check rat "fixbal lb d=8" (Rat.make 4 3) (Bounds.fix_balance_lb ~d:8);
  check rat "fixbal lb d=10" (Rat.make 15 11) (Bounds.fix_balance_lb ~d:10);
  check rat "fixbal ub d=2" (Rat.make 4 3) (Bounds.fix_balance_ub ~d:2);
  check rat "fixbal ub d=3" (Rat.make 7 5) (Bounds.fix_balance_ub ~d:3);
  check rat "fixbal ub d=6" (Rat.make 5 3) (Bounds.fix_balance_ub ~d:6);
  check rat "eager lb" (Rat.make 4 3) Bounds.eager_lb;
  check rat "eager ub d=2" (Rat.make 4 3) (Bounds.eager_ub ~d:2);
  check rat "eager ub d=5" (Rat.make 13 9) (Bounds.eager_ub ~d:5);
  check rat "balance lb d=5" (Rat.make 27 21) (Bounds.balance_lb ~d:5);
  check rat "balance ub d=2" (Rat.make 4 3) (Bounds.balance_ub ~d:2);
  check rat "balance ub d=5" (Rat.make 24 17) (Bounds.balance_ub ~d:5);
  check rat "universal" (Rat.make 45 41) Bounds.universal_lb;
  check rat "universal finite d=9" (Rat.make 90 82)
    (Bounds.universal_lb_finite ~d:9);
  check rat "universal finite d=6" (Rat.make 60 54)
    (Bounds.universal_lb_finite ~d:6);
  check rat "edf c" (Rat.of_int 3) (Bounds.edf_ub ~alternatives:3);
  check rat "local fix" (Rat.of_int 2) Bounds.local_fix_ratio;
  check rat "local eager" (Rat.make 5 3) Bounds.local_eager_ub

let test_bounds_ordering () =
  (* for every d, the paper's hierarchy: balance_ub <= eager_ub <=
     fixbal_ub <= fix_ub, and every lb <= its ub *)
  List.iter
    (fun d ->
       check Alcotest.bool "balance <= eager" true
         Rat.(Bounds.balance_ub ~d <= Bounds.eager_ub ~d);
       check Alcotest.bool "eager <= fixbal" true
         Rat.(Bounds.eager_ub ~d <= Bounds.fix_balance_ub ~d);
       check Alcotest.bool "fixbal <= fix" true
         Rat.(Bounds.fix_balance_ub ~d <= Bounds.fix_ub ~d);
       check Alcotest.bool "fix lb <= ub" true
         Rat.(Bounds.fix_lb ~d <= Bounds.fix_ub ~d);
       check Alcotest.bool "fixbal lb <= ub" true
         Rat.(Bounds.fix_balance_lb ~d <= Bounds.fix_balance_ub ~d);
       check Alcotest.bool "eager lb <= ub" true
         Rat.(Bounds.eager_lb <= Bounds.eager_ub ~d))
    [ 2; 3; 4; 5; 6; 8; 10; 12; 20 ]

let test_bounds_balance_lb_domain () =
  (match Bounds.balance_lb ~d:4 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "d=4 should be out of domain");
  check rat "d=2 via thm 2.4" (Rat.make 4 3) (Bounds.balance_lb ~d:2)

let test_bounds_table1_rows () =
  let rows = Bounds.table1 ~d:6 in
  check Alcotest.int "six rows" 6 (List.length rows);
  let names = List.map (fun (n, _, _) -> n) rows in
  check Alcotest.bool "has universal row" true
    (List.mem "any online" names)

let test_bounds_validation () =
  match Bounds.fix_lb ~d:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "d=1 accepted"

(* ------------------------------------------------------------------ *)
(* Ratio *)

let serve_all : Sched.Strategy.factory =
 fun ~n:_ ~d:_ ->
  let pending = ref [] in
  {
    Sched.Strategy.name = "serve-first";
    step =
      (fun ~round ~arrivals ->
         pending := !pending @ Array.to_list arrivals;
         match !pending with
         | r :: rest when Request.is_live r ~round ->
           pending := rest;
           [
             {
               Sched.Strategy.request = r.Request.id;
               resource = r.Request.alternatives.(0);
             };
           ]
         | _ -> []);
  }

let test_ratio_accounting () =
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 1 ] ~deadline:1;
      ]
  in
  (* the toy strategy serves only one per round *)
  let r = Report.Harness.run_instance inst serve_all in
  check Alcotest.int "opt" 2 r.Report.Harness.opt;
  check Alcotest.int "alg" 1 r.scores.Analysis.Slo.served;
  check Alcotest.int "alg agrees with the engine"
    (Engine.run inst serve_all).Sched.Outcome.served
    r.scores.Analysis.Slo.served;
  check (Alcotest.float 1e-9) "ratio" 2.0 r.ratio;
  check (Alcotest.float 1e-9) "anytime" 2.0 r.anytime_ratio

(* ------------------------------------------------------------------ *)
(* Audit *)

let test_audit_order1_detection () =
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 1 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst serve_all in
  (* request 1 failed with resource 1 idle: an order-1 path exists *)
  check Alcotest.bool "order-1 path" true
    (Analysis.Audit.has_augmenting_of_order o ~order:1);
  let a = Analysis.Audit.of_outcome o in
  check Alcotest.int "one missing" 1 (a.Analysis.Audit.opt - a.Analysis.Audit.alg);
  check Alcotest.(list (pair int int)) "census" [ (1, 1) ]
    a.Analysis.Audit.census

let test_audit_order2_detection () =
  (* r0 served on the slot r1 needed; r0's other slot is free: an
     order-2 augmenting path but no order-1 *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst serve_all in
  check Alcotest.bool "no order-1" false
    (Analysis.Audit.has_augmenting_of_order o ~order:1);
  check Alcotest.bool "order-2 exists" true
    (Analysis.Audit.has_augmenting_of_order o ~order:2)

let test_audit_perfect_outcome () =
  let inst =
    Instance.build ~n_resources:1 ~d:2
      [ req ~arrival:0 ~alts:[ 0 ] ~deadline:2 ]
  in
  let o = Engine.run inst serve_all in
  let a = Analysis.Audit.of_outcome o in
  check Alcotest.int "no paths" 0 a.Analysis.Audit.n_paths;
  check Alcotest.(option int) "no min order" None
    (Analysis.Audit.min_order a);
  check Alcotest.bool "no order-3 either" false
    (Analysis.Audit.has_augmenting_of_order o ~order:3)

let test_audit_counts_match_census () =
  let rng = Prelude.Rng.create ~seed:15 in
  let inst =
    Adversary.Random_workload.make ~rng ~n:4 ~d:3 ~rounds:40 ~load:1.5 ()
  in
  let o = Engine.run inst (Strategies.Edf.independent ()) in
  let a = Analysis.Audit.of_outcome o in
  check Alcotest.int "gap equals path count"
    (a.Analysis.Audit.opt - a.Analysis.Audit.alg)
    a.Analysis.Audit.n_paths;
  check Alcotest.int "paths_of_order sums"
    a.Analysis.Audit.n_paths
    (List.fold_left
       (fun acc (o', _) -> acc + Analysis.Audit.paths_of_order a o')
       0 a.Analysis.Audit.census)

(* ------------------------------------------------------------------ *)
(* Hall bounds *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let test_hall_interval_deficiency () =
  (* 3 requests confined to one round on one resource: deficiency 2 *)
  let inst =
    Instance.build ~n_resources:1 ~d:1
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  check Alcotest.int "deficiency" 2
    (Analysis.Hall.interval_deficiency inst ~s:0 ~t:0);
  (* a wider interval has more capacity, so its own deficiency drops;
     the disjoint-interval optimisation in opt_upper_bound picks the
     tight one *)
  check Alcotest.int "wider interval has spare capacity" 0
    (Analysis.Hall.interval_deficiency inst ~s:0 ~t:5);
  check Alcotest.int "upper bound = optimum" (Offline.Opt.value inst)
    (Analysis.Hall.opt_upper_bound inst)

let test_hall_two_bottlenecks () =
  (* two separate overloads: the disjoint-interval sum catches both *)
  let inst =
    Instance.build ~n_resources:1 ~d:1
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:3 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:3 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  check Alcotest.int "bound 2" 2 (Analysis.Hall.opt_upper_bound inst);
  check Alcotest.int "matches optimum" (Offline.Opt.value inst)
    (Analysis.Hall.opt_upper_bound inst)

let test_hall_per_resource () =
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  (* two single-choice requests on resource 0 in one round *)
  check Alcotest.int "per-resource deficiency" 1
    (Analysis.Hall.resource_interval_deficiency inst ~resource:0 ~s:0 ~t:0);
  check Alcotest.int "global interval sees all three" 1
    (Analysis.Hall.interval_deficiency inst ~s:0 ~t:0)

let hall_instance_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    int_range 1 3 >>= fun d ->
    int_range 0 30 >>= fun n_req ->
    int_range 0 10_000 >>= fun seed ->
    return (n, d, n_req, seed))

let build_hall_random (n, d, n_req, seed) =
  let rng = Prelude.Rng.create ~seed in
  let protos = ref [] in
  let arrival = ref 0 in
  for _ = 1 to n_req do
    arrival := !arrival + Prelude.Rng.int rng 2;
    let deadline = 1 + Prelude.Rng.int rng d in
    let a = Prelude.Rng.int rng n in
    let alts =
      if n > 1 && Prelude.Rng.bool rng then
        [ a; (a + 1) mod n ]
      else [ a ]
    in
    protos :=
      Request.make ~arrival:!arrival ~alternatives:alts ~deadline :: !protos
  done;
  Instance.build ~n_resources:n ~d (List.rev !protos)

let prop_hall_bounds_opt =
  qtest ~count:200 "Hall bound dominates the optimum"
    (QCheck.make hall_instance_gen ~print:(fun (n, d, r, s) ->
         Printf.sprintf "n=%d d=%d req=%d seed=%d" n d r s))
    (fun spec ->
       let inst = build_hall_random spec in
       Analysis.Hall.opt_upper_bound inst >= Offline.Opt.value inst)

let prop_hall_exact_single_resource =
  qtest ~count:200 "Hall bound is exact on a single resource"
    (QCheck.make
       (QCheck.Gen.map (fun (_, d, r, s) -> (1, d, r, s)) hall_instance_gen)
       ~print:(fun (n, d, r, s) ->
           Printf.sprintf "n=%d d=%d req=%d seed=%d" n d r s))
    (fun spec ->
       let inst = build_hall_random spec in
       Analysis.Hall.opt_upper_bound inst = Offline.Opt.value inst)

(* ------------------------------------------------------------------ *)
(* Ledger *)

let test_ledger_windows () =
  let sc = Adversary.Thm21.make ~d:4 ~phases:5 in
  let o =
    Engine.run sc.Adversary.Scenario.instance
      (Strategies.Global.fix ~bias:sc.Adversary.Scenario.bias ())
  in
  let windows = Analysis.Ledger.by_window o ~period:4 in
  (* arrivals must sum to the instance size, served to the outcome *)
  let arrived = List.fold_left (fun a w -> a + w.Analysis.Ledger.arrived) 0 windows in
  let served = List.fold_left (fun a w -> a + w.Analysis.Ledger.served) 0 windows in
  check Alcotest.int "arrived total" 78 arrived;
  check Alcotest.int "served total" o.Sched.Outcome.served served;
  (* phases of Thm 2.1 start at round i*d-1, so the period-d windows
     after the first all see the same traffic; interior steady state *)
  match Analysis.Ledger.steady_state o ~period:4 with
  | Some (arrived, served) ->
    check Alcotest.int "per-phase arrivals" 14 arrived;
    check Alcotest.int "per-phase served" 8 served
  | None -> Alcotest.fail "expected a steady state"

let test_ledger_validation () =
  let sc = Adversary.Thm21.make ~d:2 ~phases:1 in
  let o =
    Engine.run sc.Adversary.Scenario.instance (Strategies.Global.fix ())
  in
  match Analysis.Ledger.by_window o ~period:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "period 0 accepted"

(* ------------------------------------------------------------------ *)
(* Slo: the streaming accumulator against its batch oracle *)

module Slo = Analysis.Slo
module Live = Engine.Live

let raises what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

let test_slo_incremental_api () =
  let t = Slo.create () in
  Slo.on_submit t ~id:3 ~round:0 ~deadline:2;
  Slo.on_submit t ~id:5 ~round:0 ~deadline:1;
  raises "duplicate id" (fun () -> Slo.on_submit t ~id:5 ~round:0 ~deadline:1);
  raises "descending id" (fun () -> Slo.on_submit t ~id:4 ~round:0 ~deadline:1);
  raises "deadline 0" (fun () -> Slo.on_submit t ~id:6 ~round:0 ~deadline:0);
  raises "a round not in progress" (fun () ->
      Slo.on_submit t ~id:6 ~round:1 ~deadline:1);
  raises "serve a skipped id" (fun () -> Slo.on_serve t ~id:4 ~round:0);
  raises "serve a future id" (fun () -> Slo.on_serve t ~id:6 ~round:0);
  raises "expire a skipped id" (fun () -> Slo.on_expire t ~id:4 ~round:0);
  Slo.on_serve t ~id:5 ~round:0;
  raises "serve a served id" (fun () -> Slo.on_serve t ~id:5 ~round:0);
  raises "expire a served id" (fun () -> Slo.on_expire t ~id:5 ~round:0);
  Slo.on_round t;
  Slo.on_expire t ~id:3 ~round:1;
  raises "expire an expired id" (fun () -> Slo.on_expire t ~id:3 ~round:1);
  raises "serve an expired id" (fun () -> Slo.on_serve t ~id:3 ~round:1);
  Slo.on_round t;
  (* a gap in the ids is fine, and so is a ring outgrown by one round *)
  for id = 1000 to 1199 do
    Slo.on_submit t ~id ~round:2 ~deadline:1
  done;
  for id = 1000 to 1199 do
    if id mod 2 = 0 then Slo.on_serve t ~id ~round:2
    else Slo.on_expire t ~id ~round:2
  done;
  Slo.on_round t;
  let s = Slo.scores t in
  check Alcotest.int "submitted" 202 s.Slo.submitted;
  check Alcotest.int "served" 101 s.Slo.served;
  check Alcotest.int "expired" 101 s.Slo.expired;
  check Alcotest.int "machines: 200 windows in one round" 200
    s.Slo.machines_needed

(* [Slo.machines_needed] restricted to intervals of at most [max_len]
   rounds, by direct loops: which interval sets the bound. *)
let machines_within (inst : Instance.t) ~max_len =
  let best = ref 0 in
  for t2 = 0 to inst.horizon - 1 do
    for t1 = max 0 (t2 - max_len + 1) to t2 do
      let n = ref 0 in
      for a = t1 to t2 do
        Array.iter
          (fun r -> if Request.last_round r <= t2 then incr n)
          (Instance.arrivals_at inst a)
      done;
      let len = t2 - t1 + 1 in
      best := max !best ((!n + len - 1) / len)
    done
  done;
  !best

let check_stream_equals_batch what inst =
  let streamed =
    (Report.Harness.run_instance inst (Strategies.Twochoice.least_loaded ()))
      .Report.Harness.scores
  in
  let batch =
    Slo.of_outcome (Engine.run inst (Strategies.Twochoice.least_loaded ()))
  in
  if compare streamed batch <> 0 then
    Alcotest.failf "%s: streamed machines %d, batch %d" what
      streamed.Slo.machines_needed batch.Slo.machines_needed;
  batch.Slo.machines_needed

(* Constant overload: 7 requests a round on 2 resources, deadline 3, for
   2400 rounds.  Only intervals longer than 7 * (3 - 1) = 14 rounds
   reach the bound of 7; shorter ones lose their last two rounds'
   windows. *)
let test_slo_long_constant_overload () =
  let rounds = 2400 and d = 3 in
  let reqs =
    List.init (rounds * 7) (fun i ->
        req ~arrival:(i / 7) ~alts:[ i mod 2; (i + 1) mod 2 ] ~deadline:d)
  in
  let inst = Instance.build ~n_resources:2 ~d reqs in
  let m = check_stream_equals_batch "constant overload" inst in
  check Alcotest.int "the long-run rate sets the bound" 7 m;
  check Alcotest.bool "no interval of <= 14 rounds reaches it" true
    (machines_within inst ~max_len:14 < m)

(* A single burst: one request a round for 2400 rounds, and 40 with
   deadline 1 in round 1700.  One round sets the bound. *)
let test_slo_long_single_burst () =
  let rounds = 2400 and d = 4 in
  let background =
    List.init rounds (fun r -> req ~arrival:r ~alts:[ r mod 3 ] ~deadline:d)
  in
  let burst = List.init 40 (fun i -> req ~arrival:1700 ~alts:[ i mod 3 ] ~deadline:1) in
  let reqs =
    List.stable_sort
      (fun (a : Request.t) (b : Request.t) -> compare a.arrival b.arrival)
      (background @ burst)
  in
  let inst = Instance.build ~n_resources:3 ~d reqs in
  let m = check_stream_equals_batch "single burst" inst in
  check Alcotest.int "the burst round sets the bound" 40 m;
  check Alcotest.int "a one-round interval reaches it" m
    (machines_within inst ~max_len:1)

(* Random arrival counts (bursts, empty rounds) and deadlines up to 40,
   past the accumulator's initial ring sizes: the streamed scores equal
   the batch oracle's exactly, every window expiring unserved. *)
let prop_slo_stream_equals_batch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"streamed Slo = of_outcome, random windows"
       QCheck.(pair (int_range 1 300) (int_range 0 100_000))
       (fun (rounds, seed) ->
          let rng = Prelude.Rng.create ~seed in
          let d = 1 + Prelude.Rng.int rng 40 in
          let reqs = ref [] in
          for r = 0 to rounds - 1 do
            let k =
              match Prelude.Rng.int rng 4 with
              | 0 -> 0
              | 1 -> Prelude.Rng.int rng 30
              | _ -> Prelude.Rng.int rng 4
            in
            for _ = 1 to k do
              reqs :=
                req ~arrival:r ~alts:[ 0 ]
                  ~deadline:(1 + Prelude.Rng.int rng d)
                :: !reqs
            done
          done;
          let inst = Instance.build ~n_resources:1 ~d (List.rev !reqs) in
          let t = Slo.create () in
          for r = 0 to inst.horizon - 1 do
            Array.iter
              (fun (q : Request.t) ->
                 Slo.on_submit t ~id:q.id ~round:r ~deadline:q.deadline)
              (Instance.arrivals_at inst r);
            Array.iter
              (fun (q : Request.t) ->
                 if Request.last_round q = r then
                   Slo.on_expire t ~id:q.id ~round:r)
              inst.requests;
            Slo.on_round t
          done;
          let o =
            {
              Sched.Outcome.instance = inst;
              strategy_name = "none";
              served_at = Array.make (Instance.n_requests inst) None;
              served = 0;
              wasted = 0;
              per_round_served = Array.make inst.horizon 0;
            }
          in
          compare (Slo.scores t) (Slo.of_outcome o) = 0))

(* The accumulator holds the open window, not the history: its heap
   after 20 000 rounds of zoo mix stays within 1.5x of its heap after
   2 000 rounds. *)
let test_slo_bounded_by_the_window () =
  let n = 8 and d = 4 and rounds = 20_000 in
  let inst =
    match
      Workload.Zoo.generate ~name:"mix" ~n ~d ~rounds ~load:1.0 ~seed:5
    with
    | Ok i -> i
    | Error m -> Alcotest.fail m
  in
  let live = Live.create ~n ~d (Strategies.Twochoice.least_loaded ()) in
  let t = Slo.create () in
  let early = ref 0 in
  for round = 0 to rounds - 1 do
    Array.iter
      (fun (r : Request.t) ->
         match
           Live.submit live ~alternatives:(Array.to_list r.alternatives)
             ~deadline:r.deadline
         with
         | Ok id -> Slo.on_submit t ~id ~round ~deadline:r.deadline
         | Error m -> Alcotest.fail m)
      (Instance.arrivals_at inst round);
    let out = Live.step live in
    List.iter (fun (id, _) -> Slo.on_serve t ~id ~round) out.Live.served;
    List.iter (fun id -> Slo.on_expire t ~id ~round) out.Live.expired;
    Slo.on_round t;
    if round + 1 = rounds / 10 then
      early := Obj.reachable_words (Obj.repr t)
  done;
  let late = Obj.reachable_words (Obj.repr t) in
  check Alcotest.bool "a long run scored something" true
    ((Slo.scores t).Slo.submitted > 2 * rounds);
  if float_of_int late > 1.5 *. float_of_int !early then
    Alcotest.failf "Slo state grew from %d words at round %d to %d at %d"
      !early (rounds / 10) late rounds

let () =
  Alcotest.run "analysis"
    [
      ( "bounds",
        [
          Alcotest.test_case "table values" `Quick test_bounds_table_values;
          Alcotest.test_case "ordering" `Quick test_bounds_ordering;
          Alcotest.test_case "balance domain" `Quick
            test_bounds_balance_lb_domain;
          Alcotest.test_case "table1 rows" `Quick test_bounds_table1_rows;
          Alcotest.test_case "validation" `Quick test_bounds_validation;
        ] );
      ("ratio", [ Alcotest.test_case "accounting" `Quick test_ratio_accounting ]);
      ( "audit",
        [
          Alcotest.test_case "order-1 detection" `Quick
            test_audit_order1_detection;
          Alcotest.test_case "order-2 detection" `Quick
            test_audit_order2_detection;
          Alcotest.test_case "perfect outcome" `Quick
            test_audit_perfect_outcome;
          Alcotest.test_case "census consistency" `Quick
            test_audit_counts_match_census;
        ] );
      ( "hall",
        [
          Alcotest.test_case "interval deficiency" `Quick
            test_hall_interval_deficiency;
          Alcotest.test_case "two bottlenecks" `Quick
            test_hall_two_bottlenecks;
          Alcotest.test_case "per resource" `Quick test_hall_per_resource;
          prop_hall_bounds_opt;
          prop_hall_exact_single_resource;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "windows" `Quick test_ledger_windows;
          Alcotest.test_case "validation" `Quick test_ledger_validation;
        ] );
      ( "slo",
        [
          Alcotest.test_case "incremental API" `Quick test_slo_incremental_api;
          Alcotest.test_case "long constant overload" `Quick
            test_slo_long_constant_overload;
          Alcotest.test_case "long single burst" `Quick
            test_slo_long_single_burst;
          prop_slo_stream_equals_batch;
          Alcotest.test_case "state bounded by the window" `Quick
            test_slo_bounded_by_the_window;
        ] );
    ]
