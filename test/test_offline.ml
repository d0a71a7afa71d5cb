(* Tests for the offline optimum: Hopcroft-Karp on the paper graph
   must agree with the streaming tracker's independent incremental
   matching and carry a Koenig certificate, and the greedy EDF oracle
   must match it on single-alternative instances. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Rng = Prelude.Rng

let check = Alcotest.check
let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let req ~arrival ~alts ~deadline =
  Request.make ~arrival ~alternatives:alts ~deadline

(* ------------------------------------------------------------------ *)
(* hand instances with known optima *)

let test_opt_trivial () =
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  (* 2 resources, 1 round each: optimum 2 of 3 *)
  check Alcotest.int "expanded" 2 (Offline.Opt.expanded inst)

let test_opt_block_saturation () =
  (* a block(2,d) exactly saturates its pair *)
  let d = 4 in
  let inst =
    Instance.build ~n_resources:2 ~d
      (Adversary.Block.pair ~arrival:0 ~r0:0 ~r1:1 ~d)
  in
  check Alcotest.int "all served" (2 * d) (Offline.Opt.value inst);
  (* doubling the block overloads: still only 2d slots *)
  let inst2 =
    Instance.build ~n_resources:2 ~d
      (Adversary.Block.pair ~arrival:0 ~r0:0 ~r1:1 ~d
       @ Adversary.Block.pair ~arrival:0 ~r0:0 ~r1:1 ~d)
  in
  check Alcotest.int "capacity bound" (2 * d) (Offline.Opt.value inst2)

let test_opt_ring_block () =
  (* block(a,d) admits a perfect schedule for any ring size *)
  List.iter
    (fun a ->
       let d = 3 in
       let resources = Array.init a (fun i -> i) in
       let inst =
         Instance.build ~n_resources:a ~d
           (Adversary.Block.ring ~arrival:0 ~resources ~d)
       in
       check Alcotest.int
         (Printf.sprintf "ring a=%d fully servable" a)
         (a * d) (Offline.Opt.value inst))
    [ 2; 3; 4; 6 ]

let test_opt_empty () =
  let inst = Instance.build ~n_resources:3 ~d:2 [] in
  check Alcotest.int "empty expanded" 0 (Offline.Opt.expanded inst)

let test_opt_windows_matter () =
  (* same resource, deadline 1: only one of two same-round requests *)
  let inst =
    Instance.build ~n_resources:1 ~d:2
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:1 ~alts:[ 0 ] ~deadline:2;
      ]
  in
  check Alcotest.int "windows respected" 2 (Offline.Opt.value inst)

(* ------------------------------------------------------------------ *)
(* EDF oracle *)

let test_edf_oracle_simple () =
  let inst =
    Instance.build ~n_resources:1 ~d:3
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:3;
      ]
  in
  (* rounds 0,1,2 serve the three tightest; one deadline-3 request is
     lost (only 3 slots before every window closes) *)
  check Alcotest.int "edf oracle" 3 (Offline.Opt.single_alternative_edf inst);
  check Alcotest.int "matches matching" (Offline.Opt.value inst)
    (Offline.Opt.single_alternative_edf inst)

let test_edf_oracle_rejects_two_alts () =
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [ req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1 ]
  in
  match Offline.Opt.single_alternative_edf inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* properties *)

let instance_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    int_range 1 4 >>= fun d ->
    int_range 0 35 >>= fun n_req ->
    int_range 0 10_000 >>= fun seed ->
    return (n, d, n_req, seed))

let instance_arb ~alts_max =
  QCheck.make
    (QCheck.Gen.map (fun s -> (s, alts_max)) instance_gen)
    ~print:(fun ((n, d, n_req, seed), am) ->
        Printf.sprintf "n=%d d=%d req=%d seed=%d alts<=%d" n d n_req seed am)

let build_random ((n, d, n_req, seed), alts_max) =
  let rng = Rng.create ~seed in
  let protos = ref [] in
  let arrival = ref 0 in
  for _ = 1 to n_req do
    arrival := !arrival + Rng.int rng 2;
    let deadline = 1 + Rng.int rng d in
    let n_alts = 1 + Rng.int rng (min alts_max n) in
    let all = Array.init n (fun i -> i) in
    Rng.shuffle rng all;
    let alts = Array.to_list (Array.sub all 0 n_alts) in
    protos :=
      Request.make ~arrival:!arrival ~alternatives:alts ~deadline :: !protos
  done;
  Instance.build ~n_resources:n ~d (List.rev !protos)

let prop_edf_oracle_equals_matching =
  qtest ~count:250 "EDF oracle = maximum matching (single alternative)"
    (instance_arb ~alts_max:1) (fun spec ->
        let inst = build_random spec in
        Offline.Opt.single_alternative_edf inst = Offline.Opt.value inst)

let prop_opt_monotone_in_duplication =
  qtest ~count:100 "optimum grows (weakly) when the instance is repeated"
    (instance_arb ~alts_max:2) (fun spec ->
        let inst = build_random spec in
        if Instance.n_requests inst = 0 then true
        else begin
          let double = Instance.concat [ inst; inst ] in
          let o1 = Offline.Opt.value inst and o2 = Offline.Opt.value double in
          o2 >= o1 && o2 <= 2 * o1 + Instance.n_requests inst
        end)

let prop_expanded_matching_is_valid =
  qtest ~count:150 "expanded_matching returns a valid maximum matching"
    (instance_arb ~alts_max:2) (fun spec ->
        let inst = build_random spec in
        let g, m = Offline.Opt.expanded_matching inst in
        Graph.Matching.is_valid g m
        && Graph.Matching.size m
           = Offline.Opt_stream.opt (Offline.Opt_stream.of_instance inst))

let prop_opt_koenig_certified =
  (* independent optimality certificate: a vertex cover of equal size
     proves the computed optimum maximum without re-trusting the solver *)
  qtest ~count:150 "offline optimum carries a Koenig certificate"
    (instance_arb ~alts_max:3) (fun spec ->
        let inst = build_random spec in
        let g, m = Offline.Opt.expanded_matching inst in
        Graph.Hopcroft_karp.is_koenig_certificate g m)

(* ------------------------------------------------------------------ *)
(* streaming optimum: differential tests against the exact solver *)

(* curve sanity shared by every streaming test: monotone, per-round
   increments within the slot capacity, final value = the full optimum *)
let curve_well_formed inst curve =
  let n = inst.Instance.n_resources in
  let h = inst.Instance.horizon in
  Array.length curve = h
  && (h = 0 || curve.(h - 1) = Offline.Opt.expanded inst)
  && begin
    let ok = ref true in
    Array.iteri
      (fun r v ->
         let prev = if r = 0 then 0 else curve.(r - 1) in
         if v < prev || v - prev > n then ok := false)
      curve;
    !ok
  end

let prop_stream_equals_expanded =
  qtest ~count:300 "Opt_stream = expanded (random instances)"
    (instance_arb ~alts_max:3) (fun spec ->
        let inst = build_random spec in
        Offline.Opt_stream.opt (Offline.Opt_stream.of_instance inst)
        = Offline.Opt.expanded inst)

let workload_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      int_range 1 4 >>= fun d ->
      int_range 1 25 >>= fun rounds ->
      int_range 0 10_000 >>= fun seed -> return (n, d, rounds, seed))
    ~print:(fun (n, d, rounds, seed) ->
        Printf.sprintf "n=%d d=%d rounds=%d seed=%d" n d rounds seed)

let build_workload (n, d, rounds, seed) =
  let rng = Rng.create ~seed in
  Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load:1.2
    ~alternatives:(1 + (seed mod min 2 n))
    ()

let prop_stream_curve_on_workloads =
  qtest ~count:250 "Opt_stream prefix curve = naive recompute (workloads)"
    workload_arb (fun spec ->
        let inst = build_workload spec in
        let curve = Offline.Opt_stream.prefix_curve inst in
        curve = Offline.Opt_stream.naive_prefix_curve inst
        && curve_well_formed inst curve)

let test_stream_theorem_adversaries () =
  (* the fixed-instance theorem adversaries at small parameters, plus
     the adaptive Thm 2.6 instance realised against a real strategy *)
  let fixed =
    [
      ("thm2.1", (Adversary.Thm21.make ~d:3 ~phases:2).instance);
      ("thm2.2", (Adversary.Thm22.make ~ell:3 ~d:2 ~phases:2).instance);
      ("thm2.3", (Adversary.Thm23.make ~d:4 ~phases:2).instance);
      ("thm2.4", (Adversary.Thm24.make ~d:4 ~phases:2).instance);
      ("thm2.5", (Adversary.Thm25.make ~d:5 ~groups:2 ~intervals:2).instance);
      ("thm3.7", (fst (Adversary.Thm37.make ~d:2 ~intervals:2)).instance);
    ]
  in
  let adaptive =
    let adv = Adversary.Thm26.create ~d:3 ~phases:2 in
    let o =
      Sched.Engine.run_adaptive ~n:Adversary.Thm26.n_resources ~d:3
        ~last_arrival_round:(Adversary.Thm26.last_arrival_round ~d:3 ~phases:2)
        ~adversary:(Adversary.Thm26.adversary adv)
        (Strategies.Global.eager ())
    in
    ("thm2.6 (adaptive)", o.Sched.Outcome.instance)
  in
  List.iter
    (fun (name, inst) ->
       let expanded = Offline.Opt.expanded inst in
       check Alcotest.int (name ^ ": stream = expanded") expanded
         (Offline.Opt_stream.opt (Offline.Opt_stream.of_instance inst));
       let curve = Offline.Opt_stream.prefix_curve inst in
       check Alcotest.bool (name ^ ": curve well-formed") true
         (curve_well_formed inst curve);
       check Alcotest.bool (name ^ ": curve = naive") true
         (curve = Offline.Opt_stream.naive_prefix_curve inst))
    (adaptive :: fixed)

let test_stream_incremental_api () =
  (* feeding by hand matches of_instance, and opt/rounds/curve agree *)
  let inst = build_workload (3, 3, 12, 77) in
  let t = Offline.Opt_stream.create ~n_resources:3 () in
  check Alcotest.int "opt before any round" 0 (Offline.Opt_stream.opt t);
  for round = 0 to inst.Instance.horizon - 1 do
    let v = Offline.Opt_stream.feed t (Instance.arrivals_at inst round) in
    check Alcotest.int "feed returns running opt" (Offline.Opt_stream.opt t) v
  done;
  check Alcotest.int "rounds fed" inst.Instance.horizon
    (Offline.Opt_stream.rounds t);
  check Alcotest.(array int) "curve matches one-shot"
    (Offline.Opt_stream.prefix_curve inst)
    (Offline.Opt_stream.curve t);
  (* mistimed arrival is rejected *)
  match
    Offline.Opt_stream.feed t
      [| Sched.Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:1 |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* König certification of the incremental matching at cut rounds: the
   tracker's matching must be maximum at every prefix, not just at the
   horizon, and the cover gives a solver-independent certificate *)
let certify_at_cuts inst =
  let h = inst.Instance.horizon in
  let cuts =
    List.sort_uniq compare
      (List.filter (fun c -> c > 0) [ 1; h / 4; h / 2; (3 * h) / 4; h ])
  in
  List.for_all
    (fun cut ->
       let t = Offline.Opt_stream.create ~n_resources:inst.Instance.n_resources () in
       for round = 0 to cut - 1 do
         ignore (Offline.Opt_stream.feed t (Instance.arrivals_at inst round) : int)
       done;
       let g = Offline.Opt_stream.graph t in
       let m = Offline.Opt_stream.matching t in
       Graph.Hopcroft_karp.is_koenig_certificate g m
       && List.length (fst (Graph.Hopcroft_karp.min_vertex_cover g m))
          + List.length (snd (Graph.Hopcroft_karp.min_vertex_cover g m))
          = Offline.Opt_stream.opt t)
    cuts

let test_stream_koenig_at_cut_rounds () =
  List.iter
    (fun inst ->
       check Alcotest.bool "certified at every cut" true (certify_at_cuts inst))
    [
      (Adversary.Thm21.make ~d:4 ~phases:3).instance;
      (Adversary.Thm23.make ~d:4 ~phases:2).instance;
      build_workload (4, 3, 20, 5);
    ]

let prop_stream_koenig_at_random_cuts =
  qtest ~count:100 "incremental matching Koenig-certified at cut rounds"
    workload_arb (fun spec -> certify_at_cuts (build_workload spec))

let test_opt_adversary_certified () =
  (* certify the optima of the adversarial instances used throughout *)
  List.iter
    (fun inst ->
       let g, m = Offline.Opt.expanded_matching inst in
       check Alcotest.bool "certificate" true
         (Graph.Hopcroft_karp.is_koenig_certificate g m))
    [
      (Adversary.Thm21.make ~d:4 ~phases:3).instance;
      (Adversary.Thm23.make ~d:4 ~phases:3).instance;
      (Adversary.Thm24.make ~d:4 ~phases:3).instance;
      (Adversary.Thm25.make ~d:5 ~groups:2 ~intervals:3).instance;
    ]

let () =
  Alcotest.run "offline"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial" `Quick test_opt_trivial;
          Alcotest.test_case "block saturation" `Quick
            test_opt_block_saturation;
          Alcotest.test_case "ring blocks" `Quick test_opt_ring_block;
          Alcotest.test_case "empty" `Quick test_opt_empty;
          Alcotest.test_case "windows matter" `Quick test_opt_windows_matter;
          Alcotest.test_case "edf oracle" `Quick test_edf_oracle_simple;
          Alcotest.test_case "edf oracle validation" `Quick
            test_edf_oracle_rejects_two_alts;
          Alcotest.test_case "adversary optima certified" `Quick
            test_opt_adversary_certified;
        ] );
      ( "properties",
        [
          prop_edf_oracle_equals_matching;
          prop_opt_monotone_in_duplication;
          prop_expanded_matching_is_valid;
          prop_opt_koenig_certified;
        ] );
      ( "stream",
        [
          Alcotest.test_case "theorem adversaries" `Quick
            test_stream_theorem_adversaries;
          Alcotest.test_case "incremental api" `Quick
            test_stream_incremental_api;
          Alcotest.test_case "koenig at cut rounds" `Quick
            test_stream_koenig_at_cut_rounds;
          prop_stream_equals_expanded;
          prop_stream_curve_on_workloads;
          prop_stream_koenig_at_random_cuts;
        ] );
    ]
