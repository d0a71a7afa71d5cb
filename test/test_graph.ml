(* Tests for the graph substrate: bipartite graphs, matchings,
   Hopcroft-Karp, the tiered-weight matching engine and the
   alternating-path decomposition, each validated against brute-force
   oracles on randomly generated small graphs. *)

module Rng = Prelude.Rng
module Bipartite = Graph.Bipartite
module Matching = Graph.Matching
module Hopcroft_karp = Graph.Hopcroft_karp
module Lexvec = Graph.Lexvec
module Tiered = Graph.Tiered
module Brute = Graph.Brute
module Altpath = Graph.Altpath

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Random small bipartite graph described by (n_left, n_right, edge list);
   the generator deduplicates so edge counts stay meaningful. *)
let graph_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun nl ->
    int_range 1 6 >>= fun nr ->
    int_range 0 12 >>= fun ne ->
    list_size (return ne) (pair (int_range 0 (nl - 1)) (int_range 0 (nr - 1)))
    >>= fun edges ->
    return (nl, nr, List.sort_uniq compare edges))

let graph_arb =
  QCheck.make graph_gen ~print:(fun (nl, nr, es) ->
      Printf.sprintf "nl=%d nr=%d edges=[%s]" nl nr
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) es)))

let build (nl, nr, edges) =
  let g = Bipartite.create ~n_left:nl ~n_right:nr in
  List.iter (fun (u, v) -> ignore (Bipartite.add_edge g ~left:u ~right:v)) edges;
  g

(* ------------------------------------------------------------------ *)
(* Bipartite *)

let test_bipartite_basics () =
  let g = Bipartite.create ~n_left:3 ~n_right:2 in
  let e0 = Bipartite.add_edge g ~left:0 ~right:1 in
  let e1 = Bipartite.add_edge g ~left:2 ~right:0 in
  check Alcotest.int "edge ids sequential" 0 e0;
  check Alcotest.int "edge ids sequential" 1 e1;
  check Alcotest.int "n_edges" 2 (Bipartite.n_edges g);
  check Alcotest.int "endpoint" 2 (Bipartite.edge_left g e1);
  check Alcotest.int "endpoint" 0 (Bipartite.edge_right g e1);
  check Alcotest.int "degree" 1 (Bipartite.degree_left g 0);
  check Alcotest.int "degree" 0 (Bipartite.degree_left g 1);
  check Alcotest.bool "has_edge" true (Bipartite.has_edge g ~left:0 ~right:1);
  check Alcotest.bool "has_edge" false (Bipartite.has_edge g ~left:0 ~right:0)

let test_bipartite_bounds () =
  let g = Bipartite.create ~n_left:1 ~n_right:1 in
  Alcotest.check_raises "left oob"
    (Invalid_argument "Bipartite.add_edge: left endpoint out of range")
    (fun () -> ignore (Bipartite.add_edge g ~left:1 ~right:0));
  Alcotest.check_raises "right oob"
    (Invalid_argument "Bipartite.add_edge: right endpoint out of range")
    (fun () -> ignore (Bipartite.add_edge g ~left:0 ~right:(-1)))

let test_bipartite_iter_edges () =
  let g = build (3, 3, [ (0, 0); (1, 1); (2, 2) ]) in
  let seen = ref [] in
  Bipartite.iter_edges g (fun id ~left ~right ->
      seen := (id, left, right) :: !seen);
  check Alcotest.int "three edges" 3 (List.length !seen)

(* ------------------------------------------------------------------ *)
(* Matching *)

let test_matching_use_drop () =
  let g = build (2, 2, [ (0, 0); (0, 1); (1, 1) ]) in
  let m = Matching.empty g in
  Matching.use_edge g m 0;
  check Alcotest.int "size" 1 (Matching.size m);
  check Alcotest.bool "valid" true (Matching.is_valid g m);
  Alcotest.check_raises "double use"
    (Invalid_argument "Matching.use_edge: left endpoint already matched")
    (fun () -> Matching.use_edge g m 1);
  Matching.drop_left m 0;
  check Alcotest.int "size after drop" 0 (Matching.size m);
  Matching.use_edge g m 1 (* now legal *)

let test_matching_greedy_maximal () =
  let g = build (3, 3, [ (0, 0); (0, 1); (1, 0); (2, 2) ]) in
  let m = Matching.greedy_maximal g in
  check Alcotest.bool "valid" true (Matching.is_valid g m);
  check Alcotest.bool "maximal" true (Matching.is_maximal g m)

let prop_greedy_maximal =
  qtest "greedy matching is always valid and maximal" graph_arb (fun spec ->
      let g = build spec in
      let m = Matching.greedy_maximal g in
      Matching.is_valid g m && Matching.is_maximal g m)

let test_matching_augment_along () =
  (* path: 0-0 (unmatched), 1-0 (matched), 1-1 (unmatched) *)
  let g = build (2, 2, [ (0, 0); (1, 0); (1, 1) ]) in
  let m = Matching.empty g in
  Matching.use_edge g m 1;
  Matching.augment_along g m [ 0; 1; 2 ];
  check Alcotest.int "size 2" 2 (Matching.size m);
  check Alcotest.bool "valid" true (Matching.is_valid g m);
  check Alcotest.int "0 -> slot 0" 0 m.Matching.left_to.(0);
  check Alcotest.int "1 -> slot 1" 1 m.Matching.left_to.(1)

let test_matching_augment_rejects_nonsense () =
  let g = build (2, 2, [ (0, 0); (1, 0); (1, 1) ]) in
  let m = Matching.empty g in
  Matching.use_edge g m 1;
  Alcotest.check_raises "even-length path"
    (Invalid_argument "Matching.augment_along: path does not alternate")
    (fun () -> Matching.augment_along g m [ 0; 2 ])

(* ------------------------------------------------------------------ *)
(* Hopcroft-Karp *)

let test_hk_simple () =
  (* perfect matching on a 3x3 cycle-ish graph *)
  let g = build (3, 3, [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 2); (2, 0) ]) in
  let m = Hopcroft_karp.solve g in
  check Alcotest.int "perfect" 3 (Matching.size m);
  check Alcotest.bool "valid" true (Matching.is_valid g m)

let test_hk_star () =
  (* all left vertices want the same right vertex *)
  let g = build (4, 1, [ (0, 0); (1, 0); (2, 0); (3, 0) ]) in
  check Alcotest.int "only one fits" 1 (Hopcroft_karp.max_matching_size g)

let test_hk_empty () =
  let g = Bipartite.create ~n_left:3 ~n_right:3 in
  check Alcotest.int "no edges" 0 (Hopcroft_karp.max_matching_size g)

let prop_hk_matches_brute =
  qtest ~count:500 "Hopcroft-Karp size = brute force" graph_arb (fun spec ->
      let g = build spec in
      Hopcroft_karp.max_matching_size g = Brute.max_matching_size g)

let prop_hk_valid =
  qtest "Hopcroft-Karp output is a valid matching" graph_arb (fun spec ->
      let g = build spec in
      Matching.is_valid g (Hopcroft_karp.solve g))

let prop_hk_warm_start =
  qtest "solve_from greedy equals solve from empty" graph_arb (fun spec ->
      let g = build spec in
      let cold = Hopcroft_karp.solve g in
      let warm = Hopcroft_karp.solve_from g (Matching.greedy_maximal g) in
      Matching.size cold = Matching.size warm && Matching.is_valid g warm)

let prop_koenig_certificate =
  qtest ~count:500 "Koenig cover certifies every maximum matching"
    graph_arb (fun spec ->
        let g = build spec in
        let m = Hopcroft_karp.solve g in
        Hopcroft_karp.is_koenig_certificate g m)

let prop_koenig_rejects_non_maximum =
  qtest ~count:300 "Koenig certificate fails on smaller matchings"
    graph_arb (fun spec ->
        let g = build spec in
        let best = Hopcroft_karp.max_matching_size g in
        let greedy = Matching.greedy_maximal g in
        (* if greedy happens to be maximum the certificate must hold;
           if it is strictly smaller the size condition must fail *)
        if Matching.size greedy = best then
          Hopcroft_karp.is_koenig_certificate g greedy
        else not (Hopcroft_karp.is_koenig_certificate g greedy))

let test_koenig_cover_contents () =
  (* path: l0-r0, l1-r0, l1-r1: maximum matching size 2, cover {l1, r0}
     or equivalent of size 2 *)
  let g = build (2, 2, [ (0, 0); (1, 0); (1, 1) ]) in
  let m = Hopcroft_karp.solve g in
  let lefts, rights = Hopcroft_karp.min_vertex_cover g m in
  check Alcotest.int "cover size = matching size" 2
    (List.length lefts + List.length rights);
  check Alcotest.bool "certificate" true
    (Hopcroft_karp.is_koenig_certificate g m)

(* ------------------------------------------------------------------ *)
(* Lexvec *)

let test_lexvec_order () =
  check Alcotest.bool "(1,0) > (0,9)" true
    Lexvec.([| 1; 0 |] > [| 0; 9 |]);
  check Alcotest.bool "(0,1) < (1,-5)" true
    Lexvec.([| 0; 1 |] < [| 1; -5 |]);
  check Alcotest.int "equal" 0 (Lexvec.compare [| 2; 3 |] [| 2; 3 |])

let test_lexvec_group_ops () =
  let a = [| 1; -2; 3 |] and b = [| 0; 5; -1 |] in
  check Alcotest.(array int) "add" [| 1; 3; 2 |] (Lexvec.add a b);
  check Alcotest.(array int) "sub" [| 1; -7; 4 |] (Lexvec.sub a b);
  check Alcotest.(array int) "neg" [| -1; 2; -3 |] (Lexvec.neg a);
  check Alcotest.bool "pos" true (Lexvec.is_positive [| 0; 0; 1 |]);
  check Alcotest.bool "neg vec" true (Lexvec.is_negative [| 0; -1; 99 |]);
  check Alcotest.string "to_string" "(1,-2,3)" (Lexvec.to_string a)

let test_lexvec_len_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Lexvec.add: length mismatch") (fun () ->
        ignore (Lexvec.add [| 1 |] [| 1; 2 |]))

let prop_lexvec_total_order =
  let vec = QCheck.(list_of_size (QCheck.Gen.return 3) (int_range (-5) 5)) in
  qtest "lexicographic order is transitive and antisymmetric"
    QCheck.(triple vec vec vec)
    (fun (a, b, c) ->
       let a = Array.of_list a and b = Array.of_list b and c = Array.of_list c in
       let t =
         if Lexvec.compare a b <= 0 && Lexvec.compare b c <= 0 then
           Lexvec.compare a c <= 0
         else true
       in
       let anti = (Lexvec.compare a b = 0) = (a = b) in
       t && anti)

(* ------------------------------------------------------------------ *)
(* Tiered matching *)

(* weights: random per edge in [-2, 5] on 2 tiers; the brute oracle is
   the ground truth for the achieved maximum total weight *)
let weights_gen ne =
  QCheck.Gen.(list_size (return ne)
                (pair (int_range (-2) 5) (int_range (-2) 5)))

let tiered_case_gen =
  QCheck.Gen.(
    graph_gen >>= fun (nl, nr, edges) ->
    weights_gen (List.length edges) >>= fun ws ->
    return ((nl, nr, edges), ws))

let tiered_arb =
  QCheck.make tiered_case_gen ~print:(fun ((nl, nr, es), ws) ->
      Printf.sprintf "nl=%d nr=%d edges=[%s] w=[%s]" nl nr
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) es))
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) ws)))

let prop_tiered_matches_brute =
  qtest ~count:500 "tiered matching weight = brute-force optimum" tiered_arb
    (fun (spec, ws) ->
       let g = build spec in
       let warr = Array.of_list ws in
       let weight id =
         let a, b = warr.(id) in
         [| a; b |]
       in
       let m = Tiered.solve g ~weight in
       Matching.is_valid g m
       && Lexvec.equal
            (Tiered.weight_of g ~weight m)
            (Brute.max_weight g ~weight))

let prop_tiered_certificate =
  qtest ~count:300 "tiered matching passes its optimality certificate"
    tiered_arb (fun (spec, ws) ->
        let g = build spec in
        let warr = Array.of_list ws in
        let weight id =
          let a, b = warr.(id) in
          [| a; b |]
        in
        let m = Tiered.solve g ~weight in
        Tiered.is_max_weight_certificate g ~weight m)

let prop_tiered_three_tiers =
  (* deeper tier stacks (the balance strategies use d+3) must stay
     exact; weights include negatives in the lowest tier like the
     adversarial biases do *)
  let case_gen =
    QCheck.Gen.(
      graph_gen >>= fun (nl, nr, edges) ->
      list_size (return (List.length edges))
        (triple (int_range 0 2) (int_range (-1) 2) (int_range (-3) 3))
      >>= fun ws -> return ((nl, nr, edges), ws))
  in
  qtest ~count:400 "tiered matching exact with three tiers"
    (QCheck.make case_gen ~print:(fun ((nl, nr, es), _) ->
         Printf.sprintf "nl=%d nr=%d edges=%d" nl nr (List.length es)))
    (fun (spec, ws) ->
       let g = build spec in
       let warr = Array.of_list ws in
       let weight id =
         let a, b, c = warr.(id) in
         [| a; b; c |]
       in
       let m = Tiered.solve g ~weight in
       Lexvec.equal
         (Tiered.weight_of g ~weight m)
         (Brute.max_weight g ~weight))

let prop_altpath_two_maximum_matchings =
  (* two maximum matchings differ only by even paths and cycles *)
  qtest ~count:300 "no augmenting paths between two maximum matchings"
    graph_arb (fun spec ->
        let g = build spec in
        let m1 = Hopcroft_karp.solve g in
        (* a second maximum matching from a different start *)
        let m2 = Hopcroft_karp.solve_from g (Matching.greedy_maximal g) in
        List.for_all
          (fun c ->
             match c.Altpath.kind with
             | Altpath.Augmenting_first | Altpath.Augmenting_second -> false
             | Altpath.Even_path | Altpath.Cycle -> true)
          (Altpath.decompose g m1 m2))

let prop_tiered_positive_weights_max_cardinality =
  qtest ~count:300
    "all-positive top tier forces maximum cardinality" graph_arb
    (fun spec ->
       let g = build spec in
       let weight _ = [| 1; 0 |] in
       let m = Tiered.solve g ~weight in
       Matching.size m = Brute.max_matching_size g)

let test_tiered_prefers_top_tier () =
  (* two left, one right; edge 0 wins tier 0, edge 1 wins tier 1 *)
  let g = build (2, 1, [ (0, 0); (1, 0) ]) in
  let weight = function 0 -> [| 1; 0 |] | _ -> [| 0; 9 |] in
  let m = Tiered.solve g ~weight in
  check Alcotest.int "edge 0 chosen" 0 m.Matching.left_to.(0);
  check Alcotest.int "left 1 free" (-1) m.Matching.left_to.(1)

let test_tiered_bias_tier_steers_ties () =
  (* square: both perfect matchings have equal cardinality; bias picks
     the 'crossed' one *)
  let g = build (2, 2, [ (0, 0); (0, 1); (1, 0); (1, 1) ]) in
  let weight = function
    | 1 | 2 -> [| 1; 1 |] (* crossed edges carry bias *)
    | _ -> [| 1; 0 |]
  in
  let m = Tiered.solve g ~weight in
  check Alcotest.int "0 -> 1" 1 m.Matching.left_to.(0);
  check Alcotest.int "1 -> 0" 0 m.Matching.left_to.(1)

let test_tiered_skips_negative_gain () =
  (* single edge with negative weight: empty matching is optimal *)
  let g = build (1, 1, [ (0, 0) ]) in
  let m = Tiered.solve g ~weight:(fun _ -> [| -1 |]) in
  check Alcotest.int "empty" 0 (Matching.size m)

let test_tiered_weight_length_mismatch () =
  let g = build (1, 2, [ (0, 0); (0, 1) ]) in
  let weight = function 0 -> [| 1 |] | _ -> [| 1; 2 |] in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Tiered: edge 1 weight length 2, expected 1")
    (fun () -> ignore (Tiered.solve g ~weight))

(* ------------------------------------------------------------------ *)
(* Altpath *)

let test_altpath_single_augmenting () =
  (* M1 empty, M2 = {0-0}: one augmenting path of order 1 *)
  let g = build (1, 1, [ (0, 0) ]) in
  let m1 = Matching.empty g in
  let m2 = Matching.empty g in
  Matching.use_edge g m2 0;
  (match Altpath.decompose g m1 m2 with
   | [ c ] ->
     check Alcotest.bool "augmenting for first" true
       (c.Altpath.kind = Altpath.Augmenting_first);
     check Alcotest.int "order 1" 1 (Altpath.order c)
   | other ->
     Alcotest.failf "expected one component, got %d" (List.length other));
  check Alcotest.(list (pair int int)) "census" [ (1, 1) ]
    (Altpath.census g m1 m2)

let test_altpath_order2 () =
  (* M1 = {r1-s0}; M2 = {r0-s0, r1-s1}: augmenting path of order 2 *)
  let g = build (2, 2, [ (0, 0); (1, 0); (1, 1) ]) in
  let m1 = Matching.empty g in
  Matching.use_edge g m1 1;
  let m2 = Matching.empty g in
  Matching.use_edge g m2 0;
  Matching.use_edge g m2 2;
  check Alcotest.(list (pair int int)) "one order-2 path" [ (2, 1) ]
    (Altpath.census g m1 m2)

let test_altpath_cycle () =
  (* square with opposite perfect matchings: one cycle, no augmenting *)
  let g = build (2, 2, [ (0, 0); (0, 1); (1, 0); (1, 1) ]) in
  let m1 = Matching.empty g in
  Matching.use_edge g m1 0;
  Matching.use_edge g m1 3;
  let m2 = Matching.empty g in
  Matching.use_edge g m2 1;
  Matching.use_edge g m2 2;
  (match Altpath.decompose g m1 m2 with
   | [ c ] ->
     check Alcotest.bool "cycle" true (c.Altpath.kind = Altpath.Cycle);
     check Alcotest.int "4 edges" 4 (List.length c.Altpath.edges)
   | other ->
     Alcotest.failf "expected one component, got %d" (List.length other));
  check Alcotest.(list (pair int int)) "no augmenting paths" []
    (Altpath.census g m1 m2)

let test_altpath_identical_matchings () =
  let g = build (2, 2, [ (0, 0); (1, 1) ]) in
  let m = Matching.greedy_maximal g in
  check Alcotest.(list (pair int int)) "empty census" []
    (Altpath.census g m m);
  check Alcotest.int "no components" 0 (List.length (Altpath.decompose g m m))

let prop_altpath_counts_gap =
  (* |OPT| - |ALG| = number of augmenting-for-ALG components when ALG is
     maximal (no order-1 freebies needed); in general the identity holds
     for any two matchings *)
  qtest ~count:400 "size gap = #aug_first - #aug_second" graph_arb
    (fun spec ->
       let g = build spec in
       let m1 = Matching.greedy_maximal g in
       let m2 = Hopcroft_karp.solve g in
       let comps = Altpath.decompose g m1 m2 in
       let aug1 =
         List.length
           (List.filter (fun c -> c.Altpath.kind = Altpath.Augmenting_first)
              comps)
       in
       let aug2 =
         List.length
           (List.filter (fun c -> c.Altpath.kind = Altpath.Augmenting_second)
              comps)
       in
       Matching.size m2 - Matching.size m1 = aug1 - aug2)

let prop_altpath_edges_partition_symdiff =
  qtest ~count:300 "components exactly cover the symmetric difference"
    graph_arb (fun spec ->
        let g = build spec in
        let m1 = Matching.greedy_maximal g in
        let m2 = Hopcroft_karp.solve g in
        let comps = Altpath.decompose g m1 m2 in
        let covered = Hashtbl.create 16 in
        List.iter
          (fun c ->
             List.iter
               (fun id ->
                  if Hashtbl.mem covered id then failwith "duplicate edge";
                  Hashtbl.replace covered id ())
               c.Altpath.edges)
          comps;
        let expected = ref 0 in
        Bipartite.iter_edges g (fun id ~left ~right:_ ->
            let in1 = m1.Matching.left_edge.(left) = id in
            let in2 = m2.Matching.left_edge.(left) = id in
            if in1 <> in2 then begin
              incr expected;
              if not (Hashtbl.mem covered id) then failwith "missing edge"
            end);
        Hashtbl.length covered = !expected)

(* ------------------------------------------------------------------ *)
(* incremental augmentation on a graph grown column by column *)

module Augment = Graph.Augment

(* A growth script keeps its own list of the edges it appended, so the
   oracles below (Hopcroft-Karp, the vertex-deletion check) run on a
   reference graph built independently of [Augment]'s store. *)
type script = { a : Augment.t; mutable edges : (int * int) list (* newest first *) }

let script () = { a = Augment.create (); edges = [] }

(* append [lefts] as one column; its right vertex *)
let add_right a lefts =
  Augment.add_columns a lefts ~ends:[| Array.length lefts |] ~count:1;
  Augment.n_right a - 1

let column s lefts =
  let arr = Array.of_list lefts in
  let r = add_right s.a arr in
  List.iter (fun u -> s.edges <- (u, r) :: s.edges) lefts;
  r

let reference s =
  let g =
    Bipartite.create ~n_left:(Augment.n_left s.a) ~n_right:(Augment.n_right s.a)
  in
  List.iter
    (fun (left, right) -> ignore (Bipartite.add_edge g ~left ~right : int))
    (List.rev s.edges);
  g

(* The matching a partner map describes, over [g]'s edge ids (a left's
   edge is the first edge to its partner).  A pair with no edge in [g],
   or two lefts on one right, makes it fail [Matching.is_valid]. *)
let matching_of_partners g partners =
  let m = Matching.empty g in
  Array.iteri
    (fun u r ->
       if r >= 0 then begin
         m.Matching.left_to.(u) <- r;
         m.Matching.right_to.(r) <- u;
         let adj = Bipartite.adj_left g u in
         for k = Prelude.Ivec.length adj - 1 downto 0 do
           let e = Prelude.Ivec.get adj k in
           if Bipartite.edge_right g e = r then m.Matching.left_edge.(u) <- e
         done
       end)
    partners;
  m

(* The tracker's matching over the reference graph; every left vertex
   is held while the script never settles. *)
let matching_of s g =
  matching_of_partners g (Array.init (Augment.n_left s.a) (Augment.partner s.a))

let test_augment_from_scratch () =
  (* empty graph, grown column by column like the paper-graph stream *)
  let s = script () in
  let a = s.a in
  check Alcotest.int "empty" 0 (Augment.size a);
  let u0 = Augment.add_left a ~last:max_int and u1 = Augment.add_left a ~last:max_int in
  ignore (column s [ u0; u1 ] : int);
  check Alcotest.int "one slot" 1 (Augment.augment a);
  check Alcotest.int "size 1" 1 (Augment.size a);
  (* the second column forces a rerouting augmentation *)
  ignore (column s [ u0 ] : int);
  check Alcotest.int "reroute" 1 (Augment.augment a);
  check Alcotest.int "size 2" 2 (Augment.size a);
  check Alcotest.int "nothing new to search" 0 (Augment.augment a);
  check Alcotest.(list int) "partners" [ 1; 0 ] [ Augment.partner a u0; Augment.partner a u1 ];
  let g = reference s in
  let m = matching_of s g in
  check Alcotest.bool "valid" true (Matching.is_valid g m);
  check Alcotest.bool "certified" true (Hopcroft_karp.is_koenig_certificate g m)

let test_augment_rejects_bad_column () =
  let a = Augment.create () in
  let u = Augment.add_left a ~last:max_int in
  ignore (add_right a [| u |] : int);
  let raises name lefts ~ends ~count =
    (match Augment.add_columns a lefts ~ends ~count with
     | exception Invalid_argument _ -> ()
     | _ -> Alcotest.fail (name ^ ": expected Invalid_argument"));
    (* a rejected column appends nothing *)
    check Alcotest.int (name ^ ": n_right") 1 (Augment.n_right a);
    check Alcotest.int (name ^ ": n_edges") 1 (Augment.n_edges a)
  in
  raises "left past the end" [| u; u + 1 |] ~ends:[| 2 |] ~count:1;
  raises "negative left" [| -1 |] ~ends:[| 1 |] ~count:1;
  raises "column past the array" [| u |] ~ends:[| 2 |] ~count:1;
  raises "decreasing ends" [| u; u |] ~ends:[| 2; 1 |] ~count:2;
  raises "count past the ends" [| u |] ~ends:[| 1 |] ~count:2;
  raises "negative count" [| u |] ~ends:[| 1 |] ~count:(-1);
  raises "a good column before a bad one" [| u; u + 1 |] ~ends:[| 1; 2 |]
    ~count:2;
  check Alcotest.int "the good column still augments" 1 (Augment.augment a);
  (match Augment.is_dead a 99 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument")

(* Random growth scripts under the column discipline: each step adds
   some left vertices and some columns, each column's edges naming
   random existing left vertices.  After every step the incremental
   size must equal a from-scratch Hopcroft-Karp solve (itself pinned to
   Brute above) on the reference graph. *)
let growth_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 1 6 >>= fun steps ->
      int_range 0 10_000 >>= fun seed -> return (steps, seed))
    ~print:(fun (steps, seed) -> Printf.sprintf "steps=%d seed=%d" steps seed)

(* One growth step: [max_lefts - 1] at most new left vertices, 1-3
   columns, and [max_edges - 1] at most edges, each into a random one of
   the step's columns. *)
let grow_step rng s ~max_lefts ~max_edges =
  for _ = 1 to Rng.int rng max_lefts do
    ignore (Augment.add_left s.a ~last:max_int : int)
  done;
  let cols = Array.make (1 + Rng.int rng 3) [] in
  let nl = Augment.n_left s.a in
  if nl > 0 then
    for _ = 1 to Rng.int rng max_edges do
      let u = Rng.int rng nl and c = Rng.int rng (Array.length cols) in
      cols.(c) <- u :: cols.(c)
    done;
  Array.iter (fun lefts -> ignore (column s (List.rev lefts) : int)) cols;
  ignore (Augment.augment s.a : int)

let prop_augment_tracks_hopcroft_karp =
  qtest ~count:300 "incremental augmentation = from-scratch Hopcroft-Karp"
    growth_arb
    (fun (steps, seed) ->
       let rng = Rng.create ~seed in
       let s = script () in
       let ok = ref true in
       for _ = 1 to steps do
         grow_step rng s ~max_lefts:3 ~max_edges:5;
         let g = reference s in
         let m = matching_of s g in
         if
           Augment.size s.a <> Hopcroft_karp.max_matching_size g
           || not (Matching.is_valid g m)
           || Matching.size m <> Augment.size s.a
         then ok := false
       done;
       !ok)

(* The saturation-pruning lemma (DESIGN §4.3.1), checked step by step
   on longer growth scripts: the size tracks Hopcroft-Karp, and every
   left vertex a failed search killed is matched and essential —
   removing it costs every maximum matching one edge, checked by
   Hopcroft-Karp on a copy of the graph without its edges.  Rights
   outnumber lefts on average, so searches fail. *)
let long_growth_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 1 40 >>= fun steps ->
      int_range 0 100_000 >>= fun seed -> return (steps, seed))
    ~print:(fun (steps, seed) -> Printf.sprintf "steps=%d seed=%d" steps seed)

let without_left g v =
  let g' =
    Bipartite.create ~n_left:(Bipartite.n_left g) ~n_right:(Bipartite.n_right g)
  in
  Bipartite.iter_edges g (fun _ ~left ~right ->
      if left <> v then ignore (Bipartite.add_edge g' ~left ~right : int));
  g'

let prop_dead_vertices_are_essential =
  qtest ~count:150 "dead left vertices are matched in every maximum matching"
    long_growth_arb
    (fun (steps, seed) ->
       let rng = Rng.create ~seed in
       let s = script () in
       let ok = ref true in
       for _ = 1 to steps do
         grow_step rng s ~max_lefts:4 ~max_edges:7;
         let g = reference s in
         let nu = Hopcroft_karp.max_matching_size g in
         let m = matching_of s g in
         if Augment.size s.a <> nu then ok := false;
         for v = 0 to Bipartite.n_left g - 1 do
           if Augment.is_dead s.a v then begin
             if not (Matching.is_matched_left m v) then ok := false;
             if Hopcroft_karp.max_matching_size (without_left g v) <> nu - 1
             then ok := false
           end
         done
       done;
       !ok)

(* Each left vertex is stamped by at most one failed search: the
   search that fails kills what it stamped, and dead vertices are never
   stamped again. *)
let prop_failed_visits_bounded =
  qtest ~count:300 "failed-search visits <= left vertices" long_growth_arb
    (fun (steps, seed) ->
       let rng = Rng.create ~seed in
       let s = script () in
       for _ = 1 to steps do grow_step rng s ~max_lefts:4 ~max_edges:7 done;
       let st = Augment.stats s.a in
       let dead = ref 0 in
       for v = 0 to Augment.n_left s.a - 1 do
         if Augment.is_dead s.a v then incr dead
       done;
       st.Augment.failed_visits <= Augment.n_left s.a
       && st.Augment.failed_visits = !dead)

let test_failed_search_kills_once () =
  (* two lefts, each wanted by three slots: the third slot's search
     fails and kills both; the fourth's stamps nothing *)
  let a = Augment.create () in
  let u0 = Augment.add_left a ~last:max_int and u1 = Augment.add_left a ~last:max_int in
  let slot () =
    ignore (add_right a [| u0; u1 |] : int);
    Augment.augment a
  in
  check Alcotest.int "slot 0" 1 (slot ());
  check Alcotest.int "slot 1" 1 (slot ());
  check Alcotest.int "slot 2 fails" 0 (slot ());
  let s = Augment.stats a in
  check Alcotest.int "the failed search stamped both" 2
    s.Augment.failed_visits;
  check Alcotest.bool "both dead" true
    (Augment.is_dead a u0 && Augment.is_dead a u1);
  check Alcotest.int "slot 3 fails" 0 (slot ());
  let s' = Augment.stats a in
  check Alcotest.int "a dead vertex is never stamped again" 2
    s'.Augment.failed_visits;
  check Alcotest.int "so the search visited nothing" s.Augment.visited
    s'.Augment.visited

(* Epochs: a left closes when its last epoch ends; [settle] hands a
   slot from a matched open left to a free closed one when an
   alternating walk joins them, and releases what no search can reach
   any more. *)
let test_settle_flips_and_releases () =
  let a = Augment.create () in
  let old = Augment.add_left a ~last:0 and young = Augment.add_left a ~last:5 in
  (* the column probes the young request first, so it takes the slot *)
  ignore (add_right a [| young; old |] : int);
  check Alcotest.int "one slot, one match" 1 (Augment.augment a);
  check Alcotest.int "the young request took it" 0 (Augment.partner a young);
  Augment.settle a;
  check Alcotest.int "epoch 1" 1 (Augment.epoch a);
  check Alcotest.int "settle flipped the walk" 1 (Augment.stats a).Augment.flips;
  check Alcotest.int "the young request is free again" (-1)
    (Augment.partner a young);
  check Alcotest.int "size unchanged" 1 (Augment.size a);
  check Alcotest.int "the closing request holds the slot" 0
    (Augment.partner a old);
  (* no walk can reach it: it and the slot are frozen at once; the slot
     is released now, the request at the next settle *)
  check Alcotest.int "old slot released" 1 (Augment.first_right a);
  (match add_right a [| old |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "a closed left was accepted");
  ignore (add_right a [| young |] : int);
  check Alcotest.int "the young request takes the next slot" 1
    (Augment.augment a);
  Augment.settle a;
  check Alcotest.int "both served" 2 (Augment.size a);
  check Alcotest.int "the open request keeps its slot held" 1
    (Augment.first_right a);
  check Alcotest.int "old request released" young (Augment.first_left a);
  (match Augment.partner a old with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "a released left still answers");
  (match Augment.add_left a ~last:1 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "a left closed at birth was accepted");
  (* a closed but held left is refused too *)
  let b = Augment.create () in
  let u = Augment.add_left b ~last:0 and v = Augment.add_left b ~last:3 in
  ignore (add_right b [| u |] : int);
  ignore (add_right b [| v; u |] : int);
  check Alcotest.int "two slots, two matches" 2 (Augment.augment b);
  Augment.settle b;
  Augment.settle b;
  (* v's slot names u, so a walk from v still reaches u *)
  check Alcotest.int "u is still held" u (Augment.first_left b);
  match add_right b [| v; u |] with
  | exception Invalid_argument _ ->
    check Alcotest.int "nothing appended" 2 (Augment.n_right b)
  | _ -> Alcotest.fail "a closed left was accepted"

(* Growth scripts in epochs: each step opens a few lefts until a random
   later epoch (one in five for ever), appends 1-3 columns naming open
   lefts, augments and settles.  After every step the partners of the
   held lefts, with the last partner seen for each released one, must
   form a valid matching of the reference graph whose size is
   Hopcroft-Karp's and the tracker's; every dead held left must be
   matched; and a brute-force search must find no alternating walk from
   a matched open left to a free closed left. *)
type epoch_script = {
  es : script;
  lasts : Prelude.Ivec.t; (* per left: its last epoch *)
  seen : Prelude.Ivec.t; (* per left: its partner when last held *)
}

let epoch_step rng e ~long =
  let a = e.es.a in
  let epoch = Augment.epoch a in
  for _ = 1 to Rng.int rng 4 do
    let last =
      if Rng.int rng 5 = 0 then max_int
      else epoch + Rng.int rng (if long then 12 else 4)
    in
    ignore (Augment.add_left a ~last : int);
    Prelude.Ivec.push e.lasts last;
    Prelude.Ivec.push e.seen (-1)
  done;
  let opens =
    List.filter
      (fun u -> Prelude.Ivec.get e.lasts u >= epoch)
      (List.init
         (Augment.n_left a - Augment.first_left a)
         (fun k -> Augment.first_left a + k))
    |> Array.of_list
  in
  let cols = Array.make (1 + Rng.int rng 3) [] in
  if Array.length opens > 0 then
    for _ = 1 to Rng.int rng 8 do
      let u = opens.(Rng.int rng (Array.length opens))
      and c = Rng.int rng (Array.length cols) in
      cols.(c) <- u :: cols.(c)
    done;
  Array.iter (fun lefts -> ignore (column e.es (List.rev lefts) : int)) cols;
  ignore (Augment.augment a : int);
  Augment.settle a;
  for u = Augment.first_left a to Augment.n_left a - 1 do
    Prelude.Ivec.set e.seen u (Augment.partner a u)
  done

(* Is there an alternating walk (matching edge, any edge, matching
   edge, ...) from a matched left [open_] says is open to a free left
   it says is closed? *)
let open_to_closed_walk g (m : Matching.t) ~open_ =
  let nl = Bipartite.n_left g in
  let found = ref false in
  for root = 0 to nl - 1 do
    if open_ root && m.Matching.left_to.(root) >= 0 then begin
      let seen = Array.make nl false in
      seen.(root) <- true;
      let rec visit u =
        let r = m.Matching.left_to.(u) in
        Prelude.Ivec.iter
          (fun e ->
             let v = Bipartite.edge_left g e in
             if not seen.(v) then begin
               seen.(v) <- true;
               if m.Matching.left_to.(v) >= 0 then visit v
               else if not (open_ v) then found := true
             end)
          (Bipartite.adj_right g r)
      in
      visit root
    end
  done;
  !found

let prop_settle_keeps_the_invariant ~long =
  qtest ~count:200
    (Printf.sprintf "settle: no walk from a matched open left to a free closed one%s"
       (if long then " (long windows)" else ""))
    long_growth_arb
    (fun (steps, seed) ->
       let rng = Rng.create ~seed in
       let e =
         { es = script (); lasts = Prelude.Ivec.create (); seen = Prelude.Ivec.create () }
       in
       for step = 1 to steps do
         epoch_step rng e ~long;
         let a = e.es.a in
         let g = reference e.es in
         let m = matching_of_partners g (Prelude.Ivec.to_array e.seen) in
         let nu = Hopcroft_karp.max_matching_size g in
         let fail what = QCheck.Test.fail_reportf "step %d: %s" step what in
         if Augment.size a <> nu then fail "size is not Hopcroft-Karp's";
         if not (Matching.is_valid g m) then fail "partners are no matching";
         if Matching.size m <> nu then fail "partners are not maximum";
         for u = Augment.first_left a to Augment.n_left a - 1 do
           if Augment.is_dead a u && not (Matching.is_matched_left m u) then
             fail "a dead left is free"
         done;
         let open_ u = Prelude.Ivec.get e.lasts u >= Augment.epoch a in
         if open_to_closed_walk g m ~open_ then fail "a walk breaks the invariant"
       done;
       true)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A search allocates nothing: no closure per visit, no list, no boxed
   counter.  Only [augment] is measured; the column is appended first. *)
let test_search_allocates_nothing () =
  let a = Augment.create () in
  let n = 64 in
  for _ = 1 to n do ignore (Augment.add_left a ~last:max_int : int) done;
  (* a chain: slot i takes lefts i and i+1, so each new slot reroutes
     the whole chain before it *)
  let column lefts =
    ignore (add_right a lefts : int)
  in
  for i = 0 to n - 3 do
    column [| i + 1; i |];
    ignore (Augment.augment a : int)
  done;
  let baseline = minor_words_during ignore in
  column [| n - 2; 0 |];
  let words = minor_words_during (fun () -> ignore (Augment.augment a : int)) in
  check Alcotest.int "the rerouting search grew the matching" (n - 1)
    (Augment.size a);
  check (Alcotest.float 0.) "minor words of a rerouting search" 0.
    (words -. baseline);
  column [| 0; n / 2 |];
  let words = minor_words_during (fun () -> ignore (Augment.augment a : int)) in
  check Alcotest.bool "the last search failed" true (Augment.is_dead a 0);
  check (Alcotest.float 0.) "minor words of a failing search" 0.
    (words -. baseline)

let () =
  Alcotest.run "graph"
    [
      ( "bipartite",
        [
          Alcotest.test_case "basics" `Quick test_bipartite_basics;
          Alcotest.test_case "bounds" `Quick test_bipartite_bounds;
          Alcotest.test_case "iter_edges" `Quick test_bipartite_iter_edges;
        ] );
      ( "augment",
        [
          Alcotest.test_case "from scratch" `Quick test_augment_from_scratch;
          Alcotest.test_case "rejects a bad column" `Quick
            test_augment_rejects_bad_column;
          prop_augment_tracks_hopcroft_karp;
          prop_dead_vertices_are_essential;
          prop_failed_visits_bounded;
          Alcotest.test_case "a failed search kills once" `Quick
            test_failed_search_kills_once;
          Alcotest.test_case "a search allocates nothing" `Quick
            test_search_allocates_nothing;
          Alcotest.test_case "settle flips and releases" `Quick
            test_settle_flips_and_releases;
          prop_settle_keeps_the_invariant ~long:false;
          prop_settle_keeps_the_invariant ~long:true;
        ] );
      ( "matching",
        [
          Alcotest.test_case "use/drop" `Quick test_matching_use_drop;
          Alcotest.test_case "greedy maximal" `Quick
            test_matching_greedy_maximal;
          Alcotest.test_case "augment_along" `Quick test_matching_augment_along;
          Alcotest.test_case "augment rejects nonsense" `Quick
            test_matching_augment_rejects_nonsense;
          prop_greedy_maximal;
        ] );
      ( "hopcroft_karp",
        [
          Alcotest.test_case "simple" `Quick test_hk_simple;
          Alcotest.test_case "star" `Quick test_hk_star;
          Alcotest.test_case "empty" `Quick test_hk_empty;
          Alcotest.test_case "koenig cover contents" `Quick
            test_koenig_cover_contents;
          prop_hk_matches_brute;
          prop_hk_valid;
          prop_hk_warm_start;
          prop_koenig_certificate;
          prop_koenig_rejects_non_maximum;
        ] );
      ( "lexvec",
        [
          Alcotest.test_case "order" `Quick test_lexvec_order;
          Alcotest.test_case "group ops" `Quick test_lexvec_group_ops;
          Alcotest.test_case "length mismatch" `Quick test_lexvec_len_mismatch;
          prop_lexvec_total_order;
        ] );
      ( "tiered",
        [
          Alcotest.test_case "prefers top tier" `Quick
            test_tiered_prefers_top_tier;
          Alcotest.test_case "bias steers ties" `Quick
            test_tiered_bias_tier_steers_ties;
          Alcotest.test_case "skips negative gain" `Quick
            test_tiered_skips_negative_gain;
          Alcotest.test_case "weight length mismatch" `Quick
            test_tiered_weight_length_mismatch;
          prop_tiered_matches_brute;
          prop_tiered_certificate;
          prop_tiered_three_tiers;
          prop_tiered_positive_weights_max_cardinality;
        ] );
      ( "altpath",
        [
          Alcotest.test_case "single augmenting" `Quick
            test_altpath_single_augmenting;
          Alcotest.test_case "order 2" `Quick test_altpath_order2;
          Alcotest.test_case "cycle" `Quick test_altpath_cycle;
          Alcotest.test_case "identical matchings" `Quick
            test_altpath_identical_matchings;
          prop_altpath_counts_gap;
          prop_altpath_edges_partition_symdiff;
          prop_altpath_two_maximum_matchings;
        ] );
    ]
