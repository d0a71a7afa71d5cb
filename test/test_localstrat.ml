(* Tests for the local (distributed) strategies: communication-round
   budgets, the Theorem 3.7 worst case, the 5/3 bound of Theorem 3.8,
   and structural invariants shared with the global strategies. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine
module Outcome = Sched.Outcome
module Local = Localstrat.Local
module Rng = Prelude.Rng

let check = Alcotest.check
let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let req ~arrival ~alts ~deadline =
  Request.make ~arrival ~alternatives:alts ~deadline

(* ------------------------------------------------------------------ *)
(* basic behaviour *)

let test_local_fix_serves_simple () =
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
      ]
  in
  let factory, stats = Local.fix_with_stats () in
  let o = Engine.run inst factory in
  check Alcotest.int "both served" 2 o.Outcome.served;
  let s = stats () in
  check Alcotest.bool "at most 2 comm rounds" true (s.Local.comm_rounds_max <= 2)

let test_local_fix_first_alternative_first () =
  (* a lone request goes to its first alternative *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [ req ~arrival:0 ~alts:[ 1; 0 ] ~deadline:1 ]
  in
  let o = Engine.run inst (Local.fix ()) in
  (match o.Outcome.served_at.(0) with
   | Some (1, 0) -> ()
   | Some (res, round) ->
     Alcotest.failf "expected resource 1 round 0, got %d/%d" res round
   | None -> Alcotest.fail "should be served")

let test_local_fix_overflow_retry () =
  (* second alternative used when the first is full *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Local.fix ()) in
  check Alcotest.int "both served via retry" 2 o.Outcome.served

let test_local_fix_never_reschedules () =
  (* CR1 floods resource 0 beyond its capacity-2 mailbox; the LDF rule
     drops r0 (earliest deadline), and the accepted r1/r2 freeze both
     of resource 0's slots, so r3 fails too: local_fix serves only 2.
     local_eager recovers everything -- phase 2 moves r2 to the idle
     resource 1, phase 3 swaps r0 into r1's slot (re-homing r1), and
     the freed slot serves r3 next round. *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:1 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Local.fix ()) in
  check Alcotest.int "local_fix loses two" 2 o.Outcome.served;
  let o2 = Engine.run inst (Local.eager ()) in
  check Alcotest.int "local_eager saves all" 4 o2.Outcome.served

let test_local_eager_phase2_pulls_forward () =
  (* a request scheduled in the future moves onto a free current slot
     at its other resource: resource 1 idles at round 0 otherwise *)
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
      ]
  in
  let o = Engine.run inst (Local.eager ()) in
  check Alcotest.int "both served" 2 o.Outcome.served;
  (* r1 was queued behind r0 on resource 0; phase 2 moves it to
     resource 1 at round 0 *)
  (match o.Outcome.served_at.(1) with
   | Some (1, 0) -> ()
   | Some (res, round) ->
     Alcotest.failf "expected phase-2 move to (1,0), got (%d,%d)" res round
   | None -> Alcotest.fail "r1 should be served")

(* ------------------------------------------------------------------ *)
(* theorem-level behaviour *)

let test_thm37_exactly_two_competitive () =
  List.iter
    (fun d ->
       let sc, priority = Adversary.Thm37.make ~d ~intervals:6 in
       let factory, stats = Local.fix_with_stats ~priority () in
       let o = Engine.run sc.instance factory in
       let opt = Offline.Opt.value sc.instance in
       check Alcotest.int
         (Printf.sprintf "alg d=%d" d)
         (6 * 2 * d) o.Outcome.served;
       check Alcotest.int (Printf.sprintf "opt d=%d" d) (6 * 4 * d) opt;
       let s = stats () in
       check Alcotest.int "exactly 2 comm rounds per scheduling round" 2
         s.Local.comm_rounds_max)
    [ 2; 4; 6 ]

let test_local_eager_budget () =
  let rng = Rng.create ~seed:77 in
  let inst =
    Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds:60 ~load:1.4 ()
  in
  let factory, stats = Local.eager_with_stats () in
  let o = Engine.run inst factory in
  let s = stats () in
  check Alcotest.bool "at most 9 comm rounds" true (s.Local.comm_rounds_max <= 9);
  check Alcotest.bool "consistent" true (Outcome.is_consistent o)

let test_local_eager_compact_saves_a_round () =
  (* the paper's remark: capacity 2d-2 merges phase 2's cancellation
     round into phase 3's first round -- same schedule quality class,
     at most 8 communication rounds *)
  let rng = Rng.create ~seed:78 in
  let inst =
    Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds:80 ~load:1.3 ()
  in
  let normal_factory, normal_stats = Local.eager_with_stats () in
  let normal = Engine.run inst normal_factory in
  let compact_factory, compact_stats =
    Local.eager_with_stats ~compact:true ()
  in
  let compact = Engine.run inst compact_factory in
  check Alcotest.bool "compact <= 8 comm rounds" true
    ((compact_stats ()).Local.comm_rounds_max <= 8);
  check Alcotest.bool "normal <= 9 comm rounds" true
    ((normal_stats ()).Local.comm_rounds_max <= 9);
  check Alcotest.bool "compact within 5/3 of normal's count" true
    (compact.Outcome.served * 5 >= normal.Outcome.served * 3);
  check Alcotest.bool "compact consistent" true
    (Outcome.is_consistent compact);
  (* with the bigger mailbox the compact variant keeps the 5/3 bound *)
  let opt = Offline.Opt.value inst in
  check Alcotest.bool "compact within 5/3 of optimum" true
    (Analysis.Slo.ratio_of ~opt ~served:compact.Outcome.served
     <= (5.0 /. 3.0) +. 1e-9)

let test_local_eager_within_5_3 () =
  (* the 5/3 bound on the adversarial battery *)
  let instances =
    [
      (Adversary.Thm21.make ~d:4 ~phases:6).instance;
      (Adversary.Thm23.make ~d:4 ~phases:6).instance;
      (Adversary.Thm24.make ~d:4 ~phases:6).instance;
      (fst (Adversary.Thm37.make ~d:4 ~intervals:6)).instance;
    ]
  in
  List.iter
    (fun inst ->
       let o = Engine.run inst (Local.eager ()) in
       let opt = Offline.Opt.value inst in
       check Alcotest.bool "within 5/3" true
         (Analysis.Slo.ratio_of ~opt ~served:o.Outcome.served
          <= (5.0 /. 3.0) +. 1e-9))
    instances

(* ------------------------------------------------------------------ *)
(* properties *)

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

let prop_local_outcomes_consistent =
  qtest "local strategies produce consistent outcomes" instance_arb
    (fun spec ->
       let inst = build_random spec in
       List.for_all
         (fun factory -> Outcome.is_consistent (Engine.run inst factory))
         [ Local.fix (); Local.eager () ])

let prop_local_fix_no_order1 =
  qtest "local_fix leaves no order-1 augmenting path (Thm 3.7 proof)"
    instance_arb (fun spec ->
        let inst = build_random spec in
        let o = Engine.run inst (Local.fix ()) in
        not (Analysis.Audit.has_augmenting_of_order o ~order:1))

let prop_local_eager_dominates_fix =
  qtest "local_eager serves at least local_fix minus rounding"
    instance_arb (fun spec ->
        let inst = build_random spec in
        let e = (Engine.run inst (Local.eager ())).Outcome.served in
        let f = (Engine.run inst (Local.fix ())).Outcome.served in
        (* not a theorem, but on two-choice uniform-deadline inputs the
           richer protocol should never be substantially worse *)
        e >= f - 2)

let prop_local_consistent_under_loss =
  (* under loss the protocols may serve less but must never serve
     wrongly: the engine's consistency contract is the invariant *)
  qtest ~count:40 "protocols stay consistent at any loss rate"
    instance_arb (fun spec ->
        let inst = build_random spec in
        List.for_all
          (fun loss ->
             let fix = Engine.run inst (Local.fix ~loss ()) in
             let eager = Engine.run inst (Local.eager ~loss ()) in
             Outcome.is_consistent fix && Outcome.is_consistent eager)
          [ 0.2; 0.7; 1.0 ])

let prop_local_comm_budgets =
  qtest ~count:40 "communication budgets hold on random inputs"
    instance_arb (fun spec ->
        let inst = build_random spec in
        let fix_factory, fix_stats = Local.fix_with_stats () in
        ignore (Engine.run inst fix_factory);
        let eager_factory, eager_stats = Local.eager_with_stats () in
        ignore (Engine.run inst eager_factory);
        (fix_stats ()).Local.comm_rounds_max <= 2
        && (eager_stats ()).Local.comm_rounds_max <= 9)

(* ------------------------------------------------------------------ *)
(* the machine's state against the hash-table state it replaced *)

module Machine = Localstrat.Machine

(* Live requests and assignments in hash tables, ids sorted on the way
   out: the machine's state before it became an id-indexed ring. *)
module Model = struct
  type t = {
    active : (int, Request.t) Hashtbl.t;
    assigned : (int, int * int) Hashtbl.t;  (* id -> (resource, round) *)
    slots : (int * int, int) Hashtbl.t;     (* (resource, round) -> id *)
  }

  let create () =
    { active = Hashtbl.create 16; assigned = Hashtbl.create 16;
      slots = Hashtbl.create 16 }

  let admit t (r : Request.t) = Hashtbl.replace t.active r.Request.id r

  let unscheduled t =
    Hashtbl.fold
      (fun id _ acc -> if Hashtbl.mem t.assigned id then acc else id :: acc)
      t.active []
    |> List.sort compare

  let unassign t id =
    match Hashtbl.find_opt t.assigned id with
    | Some (res, slot) ->
      Hashtbl.remove t.slots (res, slot);
      Hashtbl.remove t.assigned id
    | None -> ()

  let expire t ~round =
    let dead =
      Hashtbl.fold
        (fun id r acc ->
           if Request.last_round r < round then id :: acc else acc)
        t.active []
    in
    List.iter
      (fun id ->
         Hashtbl.remove t.active id;
         unassign t id)
      dead;
    List.sort compare dead

  let evict t ~lost =
    Hashtbl.fold
      (fun id (res, _) acc -> if lost res then id :: acc else acc)
      t.assigned []
    |> List.sort compare
    |> List.filter (fun id ->
        unassign t id;
        Hashtbl.mem t.active id)

  let try_accept t ~round ~res (r : Request.t) =
    let rec first slot =
      if slot > Request.last_round r then None
      else if Hashtbl.mem t.slots (res, slot) then first (slot + 1)
      else Some slot
    in
    match first (max round r.Request.arrival) with
    | None -> None
    | Some slot ->
      Hashtbl.replace t.slots (res, slot) r.Request.id;
      Hashtbl.replace t.assigned r.Request.id (res, slot);
      Some slot
end

let ids = Alcotest.(list int)

let ids_of = List.map (fun (r : Request.t) -> r.Request.id)

(* Random rounds of admissions (ascending ids, sometimes with gaps,
   sometimes enough to grow the ring), acceptances of unscheduled
   requests, evictions and expiry, run on both; every answer must
   agree, ids in the same order. *)
let prop_machine_matches_model =
  qtest ~count:200 "machine state agrees with the hash-table model"
    QCheck.(triple (int_range 1 6) (int_range 1 4) (int_range 0 100_000))
    (fun (n, d, seed) ->
       let rng = Rng.create ~seed in
       let m = Machine.create ~n ~d and model = Model.create () in
       let next = ref 0 in
       let agree what =
         check ids (what ^ ": unscheduled") (Model.unscheduled model)
           (ids_of (Machine.unscheduled m));
         check Alcotest.int (what ^ ": pending")
           (Hashtbl.length model.Model.active) (Machine.pending m)
       in
       for round = 0 to 39 do
         check ids "expire" (Model.expire model ~round)
           (Machine.expire m ~round);
         let burst = if Rng.int rng 8 = 0 then 80 else Rng.int rng 6 in
         for _ = 1 to burst do
           let id = !next + if Rng.int rng 4 = 0 then Rng.int rng 5 else 0 in
           next := id + 1;
           let a = Rng.int rng n in
           let alternatives =
             if n > 1 && Rng.bool rng then
               [| a; (a + 1 + Rng.int rng (n - 1)) mod n |]
             else [| a |]
           in
           let r =
             Request.of_array ~id ~arrival:round ~alternatives
               ~deadline:(1 + Rng.int rng d)
           in
           Model.admit model r;
           Machine.admit m r
         done;
         agree "admit";
         List.iter
           (fun (r : Request.t) ->
              if Rng.int rng 3 > 0 then begin
                let alts = r.Request.alternatives in
                let res = alts.(Rng.int rng (Array.length alts)) in
                check
                  Alcotest.(option int)
                  "try_accept"
                  (Model.try_accept model ~round ~res r)
                  (Machine.try_accept m ~round ~res r)
              end)
           (Machine.unscheduled m);
         agree "accept";
         if Rng.int rng 4 = 0 then begin
           let k = Rng.int rng 3 in
           let lost res = res mod 3 = k in
           check ids "evict" (Model.evict model ~lost) (Machine.evict m ~lost);
           agree "evict"
         end
       done;
       true)

let test_machine_admit_ascending () =
  let m = Machine.create ~n:2 ~d:2 in
  let r id =
    Request.of_array ~id ~arrival:0 ~alternatives:[| 0; 1 |] ~deadline:2
  in
  Machine.admit m (r 3);
  Machine.admit m (r 7);
  List.iter
    (fun id ->
       match Machine.admit m (r id) with
       | () -> Alcotest.failf "admitting id %d after 7 was accepted" id
       | exception Invalid_argument _ -> ())
    [ 7; 5; 0 ];
  check ids "the state is unchanged" [ 3; 7 ] (ids_of (Machine.unscheduled m));
  Machine.admit m (r 8);
  check Alcotest.int "a higher id is admitted" 3 (Machine.pending m)

let () =
  Alcotest.run "localstrat"
    [
      ( "local_fix",
        [
          Alcotest.test_case "serves simple" `Quick test_local_fix_serves_simple;
          Alcotest.test_case "first alternative first" `Quick
            test_local_fix_first_alternative_first;
          Alcotest.test_case "overflow retry" `Quick
            test_local_fix_overflow_retry;
          Alcotest.test_case "never reschedules" `Quick
            test_local_fix_never_reschedules;
        ] );
      ( "local_eager",
        [
          Alcotest.test_case "phase 2 pulls forward" `Quick
            test_local_eager_phase2_pulls_forward;
          Alcotest.test_case "comm budget" `Quick test_local_eager_budget;
          Alcotest.test_case "compact variant" `Quick
            test_local_eager_compact_saves_a_round;
          Alcotest.test_case "within 5/3" `Quick test_local_eager_within_5_3;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "thm 3.7 exact" `Quick
            test_thm37_exactly_two_competitive;
        ] );
      ( "machine",
        [
          prop_machine_matches_model;
          Alcotest.test_case "admit wants ascending ids" `Quick
            test_machine_admit_ascending;
        ] );
      ( "properties",
        [
          prop_local_outcomes_consistent;
          prop_local_fix_no_order1;
          prop_local_eager_dominates_fix;
          prop_local_consistent_under_loss;
          prop_local_comm_budgets;
        ] );
    ]
