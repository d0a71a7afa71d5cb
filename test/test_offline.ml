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
  let curve =
    Array.init inst.Instance.horizon (fun round ->
        let v = Offline.Opt_stream.feed t (Instance.arrivals_at inst round) in
        check Alcotest.int "feed returns running opt" (Offline.Opt_stream.opt t) v;
        v)
  in
  check Alcotest.int "rounds fed" inst.Instance.horizon
    (Offline.Opt_stream.rounds t);
  check Alcotest.(array int) "curve matches one-shot"
    (Offline.Opt_stream.prefix_curve inst) curve;
  (* mistimed arrival is rejected *)
  match
    Offline.Opt_stream.feed t
      [| Sched.Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:1 |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Everything a caller can observe of a tracker, the held partners
   included. *)
let observable t =
  let first = Offline.Opt_stream.first_held t in
  let fed = ref first in
  (try
     while true do
       ignore (Offline.Opt_stream.partner t !fed : int);
       incr fed
     done
   with Invalid_argument _ -> ());
  ( (Offline.Opt_stream.rounds t, Offline.Opt_stream.opt t,
     Offline.Opt_stream.search_stats t),
    (first, List.init (!fed - first) (fun k -> Offline.Opt_stream.partner t (first + k))) )

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
  let curve = Array.make h 0 in
  let feed_both round =
    let arrivals = Instance.arrivals_at inst round in
    let v = Offline.Opt_stream.feed t arrivals in
    check Alcotest.int "feed after a rejection = fresh feed"
      (Offline.Opt_stream.feed fresh arrivals) v;
    curve.(round) <- v
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
    (Offline.Opt_stream.prefix_curve inst) curve

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
   round's arrivals, and each feed ends with the settle pass that hands
   slots from live requests to expiring ones.  The figures below were
   recorded with that order and that pass; a change to the graph store
   must leave them exactly as they are.  Before the settle pass (a
   tracker that kept the whole graph) the warm hits read 31 236 and
   the visits 223 740; the optimum, the searches and the failed visits
   are unchanged. *)
let test_stream_search_effort () =
  let inst, t, _ = Lazy.force mix_run in
  check Alcotest.int "requests" 94_389 (Instance.n_requests inst);
  check Alcotest.int "opt" 70_335 (Offline.Opt_stream.opt t);
  let s = Offline.Opt_stream.search_stats t in
  check Alcotest.int "searches" 128_192 s.Graph.Augment.searches;
  check Alcotest.int "successes" 70_335 s.Graph.Augment.successes;
  check Alcotest.int "warm hits" 35_237 s.Graph.Augment.warm_hits;
  check Alcotest.int "visits" 215_632 s.Graph.Augment.visited;
  check Alcotest.int "failed visits" 36_440 s.Graph.Augment.failed_visits;
  check Alcotest.int "settle flips" 8_108 s.Graph.Augment.flips;
  check Alcotest.int "settle visits" 22_615 s.Graph.Augment.settle_visits

(* The tracker holds the window, not the history: what a later
   augmenting path can reach, the live requests and the released past
   as a count.  Its heap after 20 000 rounds stays within 1.5x of its
   heap after 2 000, on a steady mix, on correlated vod bursts and on
   overload ramps.  Arrivals come in 1 000-round chunks, so the test
   holds one chunk, and each run ends at the top of a ramp.  A tracker
   that kept the whole paper graph held 10.4 words per request, linear
   in the run. *)
let test_stream_bounded_by_the_window () =
  let words name rounds =
    let family = Option.get (Workload.Zoo.find name) in
    let arrivals_at =
      Workload.Zoo.chunked family ~n:16 ~d:4
        ~load:family.Workload.Zoo.default_load ~seed:5 ~chunk:1_000
    in
    let t = Offline.Opt_stream.create ~n_resources:16 () in
    for round = 0 to rounds - 1 do
      ignore (Offline.Opt_stream.feed t (arrivals_at round) : int)
    done;
    check Alcotest.bool (name ^ ": scored something") true
      (Offline.Opt_stream.opt t > rounds);
    Obj.reachable_words (Obj.repr t)
  in
  List.iter
    (fun family ->
       let early = words family 2_000 and late = words family 20_000 in
       if float_of_int late > 1.5 *. float_of_int early then
         Alcotest.failf
           "%s: the tracker grew from %d words at round 2000 to %d at 20000"
           family early late)
    [ "mix"; "vod"; "overload" ]

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

(* The paper graph of the prefix through round [upto], as the tracker
   numbers it: request [i] (its id, which is its feed index) is left
   vertex [i], and slot (round, res) is right vertex [round * n + res]. *)
let prefix_graph inst ~upto =
  let n = inst.Instance.n_resources in
  let g =
    Graph.Bipartite.create ~n_left:(Instance.n_requests inst)
      ~n_right:((upto + 1) * n)
  in
  Array.iter
    (fun (r : Request.t) ->
       if r.Request.arrival <= upto then
         Array.iter
           (fun res ->
              for round = r.Request.arrival to min (Request.last_round r) upto do
                ignore
                  (Graph.Bipartite.add_edge g ~left:r.Request.id
                     ~right:((round * n) + res) : int)
              done)
           r.Request.alternatives)
    inst.Instance.requests;
  g

(* The matching a partner map describes, over [g]'s edge ids.  A pair
   with no edge in [g], or two requests on one slot, makes it fail
   [Matching.is_valid]. *)
let matching_of_partners g partners =
  let m = Graph.Matching.empty g in
  Array.iteri
    (fun u r ->
       if r >= 0 then begin
         m.Graph.Matching.left_to.(u) <- r;
         m.Graph.Matching.right_to.(r) <- u;
         Prelude.Ivec.iter
           (fun e ->
              if m.Graph.Matching.left_edge.(u) < 0
              && Graph.Bipartite.edge_right g e = r
              then m.Graph.Matching.left_edge.(u) <- e)
           (Graph.Bipartite.adj_left g u)
       end)
    partners;
  m

(* Feed [inst] round by round.  After each feed, [f round t seen] gets
   the tracker and [seen.(i)], the partner of request [i] when the
   tracker last held it: a released request never changes partner
   again, so [seen] is the tracker's whole matching. *)
let feed_recording inst f =
  let t = Offline.Opt_stream.create ~n_resources:inst.Instance.n_resources () in
  let seen = Array.make (Instance.n_requests inst) (-1) in
  let fed = ref 0 in
  for round = 0 to inst.Instance.horizon - 1 do
    let arrivals = Instance.arrivals_at inst round in
    ignore (Offline.Opt_stream.feed t arrivals : int);
    fed := !fed + Array.length arrivals;
    for i = Offline.Opt_stream.first_held t to !fed - 1 do
      seen.(i) <- Offline.Opt_stream.partner t i
    done;
    f round t seen
  done

(* König certification of the incremental matching at cut rounds: the
   tracker's matching (held partners plus the recorded partners of the
   released requests) must be a maximum matching of every prefix, not
   just at the horizon, and the cover gives a solver-independent
   certificate *)
let certify_at_cuts inst =
  let h = inst.Instance.horizon in
  let cuts = [ 1; h / 4; h / 2; (3 * h) / 4; h ] in
  let ok = ref true in
  feed_recording inst (fun round t seen ->
      if List.mem (round + 1) cuts then begin
        let g = prefix_graph inst ~upto:round in
        let m = matching_of_partners g seen in
        let cover_l, cover_r = Graph.Hopcroft_karp.min_vertex_cover g m in
        if not
            (Graph.Matching.is_valid g m
             && Graph.Hopcroft_karp.is_koenig_certificate g m
             && List.length cover_l + List.length cover_r
                = Offline.Opt_stream.opt t)
        then ok := false
      end);
  !ok

(* The window invariant, after every feed: no alternating walk runs
   from a matched live request to an unserved expired one (brute-force
   search over the whole prefix graph and the tracker's whole matching),
   and the optimum is Hopcroft-Karp's on the prefix.  Random instances
   with deadlines up to 12 rounds and loads from light to 2.5x. *)
let invariant_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 1 5 >>= fun n ->
      int_range 1 12 >>= fun d ->
      int_range 1 30 >>= fun rounds ->
      oneofl [ 0.5; 1.2; 2.5 ] >>= fun load ->
      int_range 0 10_000 >>= fun seed -> return (n, d, rounds, load, seed))
    ~print:(fun (n, d, rounds, load, seed) ->
        Printf.sprintf "n=%d d=%d rounds=%d load=%g seed=%d" n d rounds load seed)

let live_to_expired_walk g (m : Graph.Matching.t) ~live ~expired =
  let nl = Graph.Bipartite.n_left g in
  let found = ref false in
  for root = 0 to nl - 1 do
    if live root && m.Graph.Matching.left_to.(root) >= 0 then begin
      let seen = Array.make nl false in
      seen.(root) <- true;
      let rec visit u =
        Prelude.Ivec.iter
          (fun e ->
             let v = Graph.Bipartite.edge_left g e in
             if not seen.(v) then begin
               seen.(v) <- true;
               if m.Graph.Matching.left_to.(v) >= 0 then visit v
               else if expired v then found := true
             end)
          (Graph.Bipartite.adj_right g m.Graph.Matching.left_to.(u))
      in
      visit root
    end
  done;
  !found

let prop_stream_window_invariant =
  qtest ~count:250 "no walk from a live matched request to an expired free one"
    invariant_arb (fun (n, d, rounds, load, seed) ->
        let rng = Rng.create ~seed in
        let inst =
          Adversary.Random_workload.make_mixed_deadlines ~rng ~n ~d ~rounds
            ~load ~alternatives:(1 + (seed mod min 2 n)) ()
        in
        feed_recording inst (fun round t seen ->
            let g = prefix_graph inst ~upto:round in
            let m = matching_of_partners g seen in
            let fail what =
              QCheck.Test.fail_reportf "round %d: %s" round what
            in
            let nu = Graph.Hopcroft_karp.max_matching_size g in
            if Offline.Opt_stream.opt t <> nu then fail "opt is not Hopcroft-Karp's";
            if not (Graph.Matching.is_valid g m) then fail "partners are no matching";
            if Graph.Matching.size m <> nu then fail "partners are not maximum";
            let req i = inst.Instance.requests.(i) in
            let fed i = (req i).Request.arrival <= round in
            let live i = fed i && Request.last_round (req i) > round
            and expired i = fed i && Request.last_round (req i) <= round in
            if live_to_expired_walk g m ~live ~expired then
              fail "a walk breaks the invariant");
        true)

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
          Alcotest.test_case "state bounded by the window" `Quick
            test_stream_bounded_by_the_window;
          Alcotest.test_case "feed allocation" `Quick
            test_stream_feed_allocation;
          Alcotest.test_case "koenig at cut rounds" `Quick
            test_stream_koenig_at_cut_rounds;
          prop_stream_equals_expanded;
          prop_stream_curve_on_workloads;
          prop_stream_koenig_at_random_cuts;
          prop_stream_window_invariant;
        ] );
    ]
