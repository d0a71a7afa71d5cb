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

(* Everything a caller can observe of a tracker, the graph and matching
   snapshots included. *)
let observable t =
  let g = Offline.Opt_stream.graph t and m = Offline.Opt_stream.matching t in
  ( (Offline.Opt_stream.rounds t, Offline.Opt_stream.opt t,
     Offline.Opt_stream.curve t),
    ( Graph.Bipartite.n_left g, Graph.Bipartite.n_right g,
      List.init (Graph.Bipartite.n_edges g) (fun id ->
          (Graph.Bipartite.edge_left g id, Graph.Bipartite.edge_right g id)) ),
    (m.Graph.Matching.left_to, m.Graph.Matching.right_to,
     m.Graph.Matching.left_edge) )

let rejects_feed t arrivals =
  match Offline.Opt_stream.feed t arrivals with
  | exception Invalid_argument msg ->
    check Alcotest.bool ("error names Opt_stream.feed: " ^ msg) true
      (String.starts_with ~prefix:"Opt_stream.feed:" msg)
  | _ -> Alcotest.fail "expected Invalid_argument"

(* A feed that raises leaves no trace: every arrival is validated before
   the round's column is appended, so the tracker equals one that never
   saw the rejected round, now and after later feeds. *)
let test_stream_rejected_feed () =
  (* the smallest case: one resource, a good arrival then a bad one *)
  let t = Offline.Opt_stream.create ~n_resources:1 () in
  let ok round = req ~arrival:round ~alts:[ 0 ] ~deadline:1 in
  rejects_feed t [| ok 0; ok 1 |];
  check Alcotest.int "rounds after a rejected feed" 0
    (Offline.Opt_stream.rounds t);
  check Alcotest.int "a later feed counts from scratch" 1
    (Offline.Opt_stream.feed t [| ok 0 |]);
  (* a workload, with a mistimed and a foreign-resource rejection
     half-way *)
  let inst = build_workload (3, 3, 12, 77) in
  let n = inst.Instance.n_resources in
  let t = Offline.Opt_stream.create ~n_resources:n ()
  and fresh = Offline.Opt_stream.create ~n_resources:n () in
  let h = inst.Instance.horizon in
  let feed_both round =
    let arrivals = Instance.arrivals_at inst round in
    check Alcotest.int "feed after a rejection = fresh feed"
      (Offline.Opt_stream.feed fresh arrivals)
      (Offline.Opt_stream.feed t arrivals)
  in
  for round = 0 to (h / 2) - 1 do feed_both round done;
  let good = req ~arrival:(h / 2) ~alts:[ 0 ] ~deadline:2 in
  rejects_feed t [| good; req ~arrival:0 ~alts:[ 1 ] ~deadline:1 |];
  rejects_feed t [| good; req ~arrival:(h / 2) ~alts:[ 0; n ] ~deadline:1 |];
  check Alcotest.bool "state after rejections = fresh state" true
    (observable t = observable fresh);
  for round = h / 2 to h - 1 do feed_both round done;
  check Alcotest.bool "state at the horizon = fresh state" true
    (observable t = observable fresh);
  check Alcotest.(array int) "curve = one-shot curve"
    (Offline.Opt_stream.prefix_curve inst) (Offline.Opt_stream.curve t)

(* The streaming optimum on zoo mix, n = 64, d = 4, seed 1, 2 000
   rounds (94 389 requests), fed once and shared by the cases below.
   [words] holds each feed's minor words. *)
let mix_run =
  lazy begin
    let family = Option.get (Workload.Zoo.find "mix") in
    let inst =
      family.Workload.Zoo.generate ~n:64 ~d:4 ~rounds:2_000
        ~load:family.Workload.Zoo.default_load ~seed:1
    in
    let t = Offline.Opt_stream.create ~n_resources:64 () in
    let h = inst.Instance.horizon in
    let words = Array.make h 0. in
    let baseline =
      let w0 = Gc.minor_words () in
      Gc.minor_words () -. w0
    in
    for round = 0 to h - 1 do
      let arrivals = Instance.arrivals_at inst round in
      let w0 = Gc.minor_words () in
      ignore (Offline.Opt_stream.feed t arrivals : int);
      words.(round) <- Gc.minor_words () -. w0 -. baseline
    done;
    (inst, t, words)
  end

(* The Kuhn searches probe each slot's requests newest-first, then the
   round's arrivals: the figures below were recorded with that order
   (oldest-first reads about 181 visits per round instead of 112), and
   a change to the graph store must leave them exactly as they are. *)
let test_stream_search_effort () =
  let inst, t, _ = Lazy.force mix_run in
  check Alcotest.int "requests" 94_389 (Instance.n_requests inst);
  check Alcotest.int "opt" 70_335 (Offline.Opt_stream.opt t);
  let s = Offline.Opt_stream.search_stats t in
  check Alcotest.int "searches" 128_192 s.Graph.Augment.searches;
  check Alcotest.int "successes" 70_335 s.Graph.Augment.successes;
  check Alcotest.int "warm hits" 31_236 s.Graph.Augment.warm_hits;
  check Alcotest.int "visits" 223_740 s.Graph.Augment.visited;
  check Alcotest.int "failed visits" 36_440 s.Graph.Augment.failed_visits

(* The tracker's heap is one word per edge, two per request and one per
   slot, plus the live window: about 10.4 words per request here.  The
   growable-graph store it replaced held 57.4. *)
let test_stream_memory () =
  let inst, t, _ = Lazy.force mix_run in
  let words = Obj.reachable_words (Obj.repr t) in
  let per_request =
    float_of_int words /. float_of_int (Instance.n_requests inst)
  in
  if per_request > 24. then
    Alcotest.failf "tracker holds %.1f words per request (bound 24)"
      per_request

(* A feed allocates nothing on the minor heap unless a buffer grows:
   the round's columns go through reused arrays, with no list, closure
   or tuple per request.  Growth (a chunk directory, the live window's
   arrays) is rare, so the median round reads 0 and the mean stays
   small.  The graph-backed feed allocated about 3 400 words per
   round. *)
let test_stream_feed_allocation () =
  let _, _, words = Lazy.force mix_run in
  let h = Array.length words in
  let steady = Array.sub words (h / 2) (h - (h / 2)) in
  let mean = Array.fold_left ( +. ) 0. steady /. float_of_int (Array.length steady) in
  Array.sort compare steady;
  check (Alcotest.float 0.) "median minor words of a feed" 0.
    steady.(Array.length steady / 2);
  if mean > 2. then
    Alcotest.failf "a feed allocates %.2f minor words on average (bound 2)" mean

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
          Alcotest.test_case "a rejected feed leaves no trace" `Quick
            test_stream_rejected_feed;
          Alcotest.test_case "search effort on zoo mix" `Quick
            test_stream_search_effort;
          Alcotest.test_case "memory per request" `Quick test_stream_memory;
          Alcotest.test_case "feed allocation" `Quick
            test_stream_feed_allocation;
          Alcotest.test_case "koenig at cut rounds" `Quick
            test_stream_koenig_at_cut_rounds;
          prop_stream_equals_expanded;
          prop_stream_curve_on_workloads;
          prop_stream_koenig_at_random_cuts;
        ] );
    ]
