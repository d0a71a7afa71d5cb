(* Differential suite for the warm-start incremental kernel.

   The kernel (Strategies.Kernel, behind Global's default
   [~solver:Kernel]) claims to be outcome-identical to the from-scratch
   rebuild path for every global strategy — same served set, same serve
   rounds and resources, same waste, for any engine and any (pure)
   bias.  These tests pin that claim against the rebuild oracle:

   - randomised instances with varied deadlines and alternative counts,
     with and without an adversarial pure tie-breaking bias;
   - every fixed theorem adversary of the paper;
   - the adaptive Thm 2.6 adversary through Engine.run_adaptive (the
     adversary observes the algorithm, so equality of the emitted
     instances is itself part of the claim);
   - the Engine.Live incremental path used by the server;
   - Graph.Warm against Graph.Tiered on raw random weighted graphs,
     edge-for-edge, with Tiered.is_max_weight_certificate as the
     independent optimality oracle;
   - a steady-state Warm.solve allocates nothing;
   - the kernel's Obs counters (augment searches, augments, warm hits,
     step timing) actually accumulate, and a fix-kernel round stays a
     handful of SPFA sweeps rather than one per augmentation. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine
module Outcome = Sched.Outcome
module Strategy = Sched.Strategy
module Global = Strategies.Global
module Rng = Prelude.Rng

let check = Alcotest.check

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* every global strategy, as (name, solver-and-bias-polymorphic maker) *)
type maker =
  ?solver:Global.solver -> ?bias:Strategy.bias -> unit -> Strategy.factory

let makers : (string * maker) list =
  [
    ("A_fix", fun ?solver ?bias () -> Global.fix ?solver ?bias ());
    ("A_current", fun ?solver ?bias () -> Global.current ?solver ?bias ());
    ( "A_fix_balance",
      fun ?solver ?bias () -> Global.fix_balance ?solver ?bias () );
    ("A_eager", fun ?solver ?bias () -> Global.eager ?solver ?bias ());
    ("A_balance", fun ?solver ?bias () -> Global.balance ?solver ?bias ());
    ("A_remax", fun ?solver ?bias () -> Global.remax ?solver ?bias ());
  ]

(* everything an outcome determines, as one comparable value *)
let outcome_sig (o : Outcome.t) =
  ( Array.to_list o.Outcome.served_at,
    o.Outcome.served,
    o.Outcome.wasted,
    Array.to_list o.Outcome.per_round_served )

let instance_sig (inst : Instance.t) =
  Array.to_list
    (Array.map
       (fun (r : Request.t) ->
          ( r.Request.arrival,
            Array.to_list r.Request.alternatives,
            r.Request.deadline ))
       inst.Instance.requests)

(* a pure, adversarial tie-break: spreads over ids, resources and
   rounds, takes negative values, depends on nothing mutable *)
let adv_bias : Strategy.bias =
 fun ~request ~resource ~round ->
  (((request.Request.id * 31) + (resource * 7) + (round * 13)) mod 7) - 3

let run_both ?bias inst ((_, maker) : string * maker) =
  let k = Engine.run inst (maker ~solver:Global.Kernel ?bias ()) in
  let r = Engine.run inst (maker ~solver:Global.Rebuild ?bias ()) in
  outcome_sig k = outcome_sig r

(* ------------------------------------------------------------------ *)
(* random instances *)

let instance_gen =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 1 5 >>= fun d ->
    int_range 0 40 >>= fun n_req ->
    int_range 0 100_000 >>= fun seed -> return (n, d, n_req, seed))

let instance_arb =
  QCheck.make instance_gen ~print:(fun (n, d, n_req, seed) ->
      Printf.sprintf "n=%d d=%d req=%d seed=%d" n d n_req seed)

(* deadlines vary in [1, d] and each request lists 1-3 distinct
   alternatives, so the kernel's window logic and the dormant/viable
   distinction are both exercised *)
let build_random (n, d, n_req, seed) =
  let rng = Rng.create ~seed in
  let protos = ref [] in
  let arrival = ref 0 in
  for _ = 1 to n_req do
    arrival := !arrival + Rng.int rng 2;
    let n_alts = 1 + Rng.int rng (min 3 n) in
    let start = Rng.int rng n in
    let alts = List.init n_alts (fun i -> (start + i) mod n) in
    let deadline = 1 + Rng.int rng d in
    protos :=
      Request.make ~arrival:!arrival ~alternatives:alts ~deadline :: !protos
  done;
  Instance.build ~n_resources:n ~d (List.rev !protos)

let prop_kernel_matches_rebuild =
  qtest ~count:250 "kernel == rebuild on random instances (all strategies)"
    instance_arb (fun spec ->
      let inst = build_random spec in
      List.for_all (run_both inst) makers)

let prop_kernel_matches_rebuild_biased =
  qtest ~count:250
    "kernel == rebuild under an adversarial pure bias (all strategies)"
    instance_arb (fun spec ->
      let inst = build_random spec in
      List.for_all (run_both ~bias:adv_bias inst) makers)

(* ------------------------------------------------------------------ *)
(* theorem adversaries *)

let theorem_instances () =
  [
    ("thm21", (Adversary.Thm21.make ~d:4 ~phases:3).Adversary.Scenario.instance);
    ( "thm22",
      (Adversary.Thm22.make ~ell:4 ~d:6 ~phases:2).Adversary.Scenario.instance
    );
    ("thm23", (Adversary.Thm23.make ~d:4 ~phases:3).Adversary.Scenario.instance);
    ("thm24", (Adversary.Thm24.make ~d:4 ~phases:3).Adversary.Scenario.instance);
    ( "thm25",
      (Adversary.Thm25.make ~d:5 ~groups:3 ~intervals:3)
        .Adversary.Scenario.instance );
    ( "thm37",
      (fst (Adversary.Thm37.make ~d:4 ~intervals:3)).Adversary.Scenario.instance
    );
  ]

let test_theorem_adversaries () =
  List.iter
    (fun (wname, inst) ->
       List.iter
         (fun ((sname, _) as m) ->
            check Alcotest.bool
              (Printf.sprintf "%s/%s kernel == rebuild" wname sname)
              true
              (run_both inst m);
            check Alcotest.bool
              (Printf.sprintf "%s/%s kernel == rebuild (biased)" wname sname)
              true
              (run_both ~bias:adv_bias inst m))
         makers)
    (theorem_instances ())

(* the adaptive adversary observes the algorithm's serves, so if the two
   solvers diverged anywhere the emitted instances would diverge too --
   both the outcome and the workload must match *)
let test_adaptive_thm26 () =
  let d = 3 and phases = 2 in
  let run (maker : maker) solver =
    let adv = Adversary.Thm26.create ~d ~phases in
    Engine.run_adaptive ~n:Adversary.Thm26.n_resources ~d
      ~last_arrival_round:(Adversary.Thm26.last_arrival_round ~d ~phases)
      ~adversary:(Adversary.Thm26.adversary adv)
      (maker ~solver ?bias:(Some adv_bias) ())
  in
  List.iter
    (fun (sname, maker) ->
       let k = run maker Global.Kernel and r = run maker Global.Rebuild in
       check Alcotest.bool
         (Printf.sprintf "thm26/%s same emitted instance" sname)
         true
         (instance_sig k.Outcome.instance = instance_sig r.Outcome.instance);
       check Alcotest.bool
         (Printf.sprintf "thm26/%s same outcome" sname)
         true
         (outcome_sig k = outcome_sig r))
    makers

(* ------------------------------------------------------------------ *)
(* the live engine path *)

let prop_live_path =
  qtest ~count:80 "kernel == rebuild through Engine.Live" instance_arb
    (fun spec ->
      let inst = build_random spec in
      let run solver =
        let live =
          Engine.Live.create ~n:inst.Instance.n_resources ~d:inst.Instance.d
            (Global.balance ~solver ())
        in
        let log = ref [] in
        for round = 0 to inst.Instance.horizon - 1 do
          Array.iter
            (fun (r : Request.t) ->
               match
                 Engine.Live.submit live
                   ~alternatives:(Array.to_list r.Request.alternatives)
                   ~deadline:r.Request.deadline
               with
               | Ok _ -> ()
               | Error m -> failwith m)
            (Instance.arrivals_at inst round);
          let o = Engine.Live.step live in
          log :=
            (o.Engine.Live.round, o.Engine.Live.served, o.Engine.Live.expired)
            :: !log
        done;
        !log
      in
      run Global.Kernel = run Global.Rebuild)

(* ------------------------------------------------------------------ *)
(* Graph.Warm against Graph.Tiered, edge for edge *)

(* Tier scales of the random graphs: zero tiers vanish from the packing,
   small and 2^20-sized tiers share words (three 2^20 tiers overflow one
   word), and a tier near 2^54 gets a word to itself once the graph has
   about 64 or more vertices (its radix 2 (nv + 1) W + 1 then exceeds
   2^61). *)
type scale = Zero | Small | Wide | Huge

let graph_gen =
  QCheck.Gen.(
    int_range 0 40 >>= fun nl ->
    int_range 0 40 >>= fun nr ->
    int_range 1 12 >>= fun k ->
    array_repeat k (frequency [ (1, return Zero); (3, return Small);
                                (2, return Wide) ])
    >>= fun scales ->
    (* at most one huge tier, in a third of the graphs *)
    int_range 0 (3 * k - 1) >>= fun huge ->
    if huge < k then scales.(huge) <- Huge;
    int_range 0 100_000 >>= fun seed -> return (nl, nr, scales, seed))

let scale_name = function
  | Zero -> "0" | Small -> "s" | Wide -> "w" | Huge -> "H"

let graph_arb =
  QCheck.make graph_gen ~print:(fun (nl, nr, scales, seed) ->
      Printf.sprintf "nl=%d nr=%d tiers=%s seed=%d" nl nr
        (String.concat "" (Array.to_list (Array.map scale_name scales)))
        seed)

let draw rng = function
  | Zero -> 0
  | Small -> Rng.int rng 7 - 3
  | Wide -> Rng.int_in rng (-(1 lsl 20)) (1 lsl 20)
  | Huge ->
    let m = (1 lsl 54) - Rng.int rng (1 lsl 20) in
    if Rng.bool rng then m else -m

type warm_case = {
  agrees : bool;  (* Warm == Tiered edge for edge, and optimal *)
  words : int;    (* Warm's packed width *)
  nonzero : int;  (* tiers with a non-zero weight *)
  one_word : bool; (* all non-zero radices multiply to <= 2^61 *)
  own_word : bool; (* some tier's radix alone exceeds 2^61 *)
}

let warm_case (nl, nr, scales, seed) =
  let k = Array.length scales in
  let rng = Rng.create ~seed in
  let g = Graph.Bipartite.create ~n_left:nl ~n_right:nr in
  let warm = Graph.Warm.create () in
  Graph.Warm.begin_round warm ~n_right:nr ~k;
  let weights = ref [] in
  (* identical insertion order on both sides: per-left groups of up to 8
     edges to random rights, tier j drawn at scales.(j) *)
  for _ = 0 to nl - 1 do
    let l = Graph.Warm.add_left warm in
    let degree = if nr = 0 then 0 else Rng.int rng (min nr 8 + 1) in
    for _ = 1 to degree do
      let right = Rng.int rng nr in
      ignore (Graph.Bipartite.add_edge g ~left:l ~right : int);
      let e = Graph.Warm.add_edge warm ~right in
      let w = Array.map (draw rng) scales in
      Array.iteri (fun j v -> Graph.Warm.set_weight warm e j v) w;
      weights := w :: !weights
    done
  done;
  let weights = Array.of_list (List.rev !weights) in
  let weight e = Graph.Lexvec.of_array weights.(e) in
  let m = Graph.Tiered.solve g ~weight in
  Graph.Warm.solve warm;
  let agrees =
    List.for_all
      (fun l ->
         Graph.Warm.left_to warm l = m.Graph.Matching.left_to.(l)
         && Graph.Warm.left_edge warm l = m.Graph.Matching.left_edge.(l))
      (List.init nl Fun.id)
    && List.for_all
      (fun r -> Graph.Warm.right_to warm r = m.Graph.Matching.right_to.(r))
      (List.init nr Fun.id)
    && Graph.Tiered.is_max_weight_certificate g ~weight m
  in
  (* the radix bound of Warm's packing, recomputed from the weights *)
  let limit = 1 lsl 61 and span = 2 * (nl + nr + 1) in
  let wmax j =
    Array.fold_left (fun acc w -> max acc (abs w.(j))) 0 weights
  in
  let nonzero = ref 0 and own_word = ref false and product = ref 1 in
  for j = 0 to k - 1 do
    let m = wmax j in
    if m > 0 then begin
      incr nonzero;
      if m > (limit - 1) / span then own_word := true
      else begin
        let r = (span * m) + 1 in
        product := if !product > limit / r then limit + 1 else !product * r
      end
    end
  done;
  {
    agrees;
    words = (Graph.Warm.stats warm).Graph.Warm.words;
    nonzero = !nonzero;
    one_word = (not !own_word) && !product <= limit;
    own_word = !own_word;
  }

(* The packed width is 1 exactly when every radix fits one word, and
   never more than one word per non-zero tier. *)
let width_consistent c =
  c.words >= 1
  && c.words <= max 1 c.nonzero
  && (c.words = 1) = (c.one_word || c.nonzero <= 1)

let prop_warm_equals_tiered =
  qtest ~count:300 "Warm.solve == Tiered.solve on random weighted graphs"
    graph_arb (fun case ->
      let c = warm_case case in
      c.agrees && width_consistent c)

(* The differential above is only as strong as the packings it draws:
   on a fixed sample of its generator, every case agrees and the sample
   reaches one word holding several tiers, several words, and a tier in
   a word of its own. *)
let test_generator_reaches_every_width () =
  let rand = Random.State.make [| 29 |] in
  let cases =
    List.map warm_case (QCheck.Gen.generate ~rand ~n:300 graph_gen)
  in
  check Alcotest.bool "every sampled case agrees" true
    (List.for_all (fun c -> c.agrees && width_consistent c) cases);
  let reached name p =
    check Alcotest.bool name true (List.exists p cases)
  in
  reached "one word of several tiers" (fun c ->
      c.words = 1 && c.nonzero >= 2);
  reached "two words or more" (fun c -> c.words >= 2);
  reached "a tier in a word of its own" (fun c ->
      c.own_word && c.words >= 2)

(* One Warm round over a fixed random graph: 300 lefts of 6 edges each
   into 200 rights, fix-like tiers [1; 1; bias], or with [~wide] five
   tiers of +-2^20, which take three words. *)
let build_warm_round ?(wide = false) warm =
  let rng = Rng.create ~seed:5 in
  let k = if wide then 5 else 3 in
  Graph.Warm.begin_round warm ~n_right:200 ~k;
  for _ = 1 to 300 do
    ignore (Graph.Warm.add_left warm : int);
    for _ = 1 to 6 do
      let e = Graph.Warm.add_edge warm ~right:(Rng.int rng 200) in
      if wide then
        for j = 0 to k - 1 do
          Graph.Warm.set_weight warm e j (draw rng Wide)
        done
      else begin
        Graph.Warm.set_weight warm e 0 1;
        Graph.Warm.set_weight warm e 1 1;
        Graph.Warm.set_weight warm e 2 (Rng.int rng 7 - 3)
      end
    done
  done

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_warm_solve_allocates_nothing ~wide () =
  let warm = Graph.Warm.create () in
  (* the first solve grows the arena; the second, on the same shape, is
     steady state *)
  build_warm_round ~wide warm;
  Graph.Warm.solve warm;
  build_warm_round ~wide warm;
  let baseline = minor_words_during ignore in
  let words = minor_words_during (fun () -> Graph.Warm.solve warm) in
  check (Alcotest.float 0.) "minor words of a steady-state solve" 0.
    (words -. baseline);
  check Alcotest.int "packed width" (if wide then 3 else 1)
    (Graph.Warm.stats warm).Graph.Warm.words

(* ------------------------------------------------------------------ *)
(* kernel metrics *)

let test_kernel_metrics () =
  let m = Obs.Metrics.create () in
  let inst = build_random (4, 3, 30, 7) in
  let o = Engine.run inst (Global.balance ~metrics:m ()) in
  check Alcotest.bool "some requests served" true (o.Outcome.served > 0);
  check Alcotest.bool "augment searches counted" true
    (Obs.Metrics.counter m "strategy.augment_searches" > 0);
  check Alcotest.bool "augments counted" true
    (Obs.Metrics.counter m "strategy.augments" > 0);
  check Alcotest.bool "warm hits counted" true
    (Obs.Metrics.counter m "strategy.warm_hits" >= 0);
  check Alcotest.bool "every warm hit is an augment" true
    (Obs.Metrics.counter m "strategy.warm_hits"
     <= Obs.Metrics.counter m "strategy.augments");
  (match Obs.Metrics.histogram m "strategy.kernel_us" with
   | Some stats ->
     check Alcotest.bool "kernel_us observed every round" true
       (Prelude.Stats.count stats = inst.Instance.horizon)
   | None -> Alcotest.fail "strategy.kernel_us histogram missing")

(* One phase flips many disjoint paths, so a fix-kernel round costs a
   few SPFA sweeps, not one per augmentation (~256 per round here when
   every path had its own sweep). *)
let test_fix_sweeps_per_round () =
  let m = Obs.Metrics.create () in
  let rng = Rng.create ~seed:1 in
  let inst =
    Adversary.Random_workload.make ~rng ~n:256 ~d:8 ~rounds:40 ~load:1.1 ()
  in
  ignore (Engine.run inst (Global.fix ~metrics:m ()) : Outcome.t);
  let per_round =
    float_of_int (Obs.Metrics.counter m "strategy.augment_searches")
    /. float_of_int inst.Instance.horizon
  in
  if per_round > 16. then
    Alcotest.failf "%.1f augment searches per round, expected <= 16"
      per_round

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        [
          prop_kernel_matches_rebuild;
          prop_kernel_matches_rebuild_biased;
          Alcotest.test_case "theorem adversaries" `Quick
            test_theorem_adversaries;
          Alcotest.test_case "adaptive thm26" `Quick test_adaptive_thm26;
          prop_live_path;
        ] );
      ( "warm-arena",
        [
          prop_warm_equals_tiered;
          Alcotest.test_case "generator reaches every packed width" `Quick
            test_generator_reaches_every_width;
          Alcotest.test_case "steady-state solve allocates nothing" `Quick
            (test_warm_solve_allocates_nothing ~wide:false);
          Alcotest.test_case "multi-word solve allocates nothing" `Quick
            (test_warm_solve_allocates_nothing ~wide:true);
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_kernel_metrics;
          Alcotest.test_case "fix sweeps per round" `Quick
            test_fix_sweeps_per_round;
        ] );
    ]
