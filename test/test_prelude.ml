(* Unit and property tests for the prelude substrate. *)

module Rng = Prelude.Rng
module Rat = Prelude.Rat
module Stats = Prelude.Stats
module Ivec = Prelude.Ivec
module Texttable = Prelude.Texttable

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let child = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 child) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create ~seed:9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int "copies agree" (Rng.int a 999) (Rng.int b 999)

let prop_int_in_range =
  qtest "Rng.int stays in range"
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
       let rng = Rng.create ~seed in
       let ok = ref true in
       for _ = 1 to 100 do
         let v = Rng.int rng bound in
         if v < 0 || v >= bound then ok := false
       done;
       !ok)

let prop_int_in_bounds =
  qtest "Rng.int_in stays in [lo,hi]"
    QCheck.(triple small_int (int_range (-500) 500) (int_range 0 500))
    (fun (seed, lo, span) ->
       let hi = lo + span in
       let rng = Rng.create ~seed in
       let ok = ref true in
       for _ = 1 to 50 do
         let v = Rng.int_in rng lo hi in
         if v < lo || v > hi then ok := false
       done;
       !ok)

let test_rng_int_uniformish () =
  (* coarse sanity bound on a 10-bucket histogram *)
  let rng = Rng.create ~seed:123 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
       check Alcotest.bool "bucket within 5% of uniform" true
         (abs (c - (n / 10)) < n / 20))
    buckets

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:5 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 (fun i -> i))
    sorted

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let f = Rng.float rng 2.5 in
    check Alcotest.bool "in [0,2.5)" true (f >= 0.0 && f < 2.5)
  done

let test_rng_bool_balanced () =
  let rng = Rng.create ~seed:13 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool rng then incr trues
  done;
  check Alcotest.bool "roughly fair" true (abs (!trues - 5000) < 300)

let test_rng_geometric_mean () =
  let rng = Rng.create ~seed:17 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng ~p:0.5
  done;
  (* mean of geometric(0.5) failures-before-success is 1 *)
  let mean = float_of_int !total /. float_of_int n in
  check Alcotest.bool "mean near 1" true (abs_float (mean -. 1.0) < 0.07)

let test_rng_zipf_ranks () =
  let rng = Rng.create ~seed:19 in
  let counts = Array.make 5 0 in
  for _ = 1 to 20_000 do
    let r = Rng.zipf rng ~n:5 ~s:1.0 in
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 0 most popular" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(4))

let test_rng_invalid_args () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "int 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
        ignore (Rng.int rng 0));
  Alcotest.check_raises "int_in inverted"
    (Invalid_argument "Rng.int_in: lo > hi") (fun () ->
        ignore (Rng.int_in rng 3 2))

(* ------------------------------------------------------------------ *)
(* Rat *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalisation () =
  check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  check rat "-6/-4 = 3/2" (Rat.make 3 2) (Rat.make (-6) (-4));
  check rat "6/-4 = -3/2" (Rat.make (-3) 2) (Rat.make 6 (-4));
  check rat "0/7 = 0" Rat.zero (Rat.make 0 7)

let test_rat_arith () =
  check rat "1/2 + 1/3" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  check rat "1/2 - 1/3" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  check rat "2/3 * 9/4" (Rat.make 3 2) (Rat.mul (Rat.make 2 3) (Rat.make 9 4));
  check rat "1/2 / 1/4" (Rat.of_int 2) (Rat.div (Rat.make 1 2) (Rat.make 1 4))

let test_rat_compare () =
  check Alcotest.bool "45/41 > 12/11" true Rat.(make 45 41 > make 12 11);
  check Alcotest.bool "19/12 > 45/41" true Rat.(make 19 12 > make 45 41);
  check Alcotest.int "equal" 0 (Rat.compare (Rat.make 2 4) (Rat.make 1 2))

let test_rat_paper_bounds_order () =
  (* Table 1, d = 4: A_fix 2-1/4 = 7/4; A_fix_balance UB 2-2/4 = 3/2;
     A_eager UB (3d-2)/(2d-1) = 10/7; A_balance UB 6(d-1)/(4d-3) = 18/13 *)
  let fix = Rat.make 7 4
  and fixbal = Rat.make 3 2
  and eager = Rat.make 10 7
  and bal = Rat.make 18 13 in
  check Alcotest.bool "bal < eager" true Rat.(bal < eager);
  check Alcotest.bool "eager < fixbal" true Rat.(eager < fixbal);
  check Alcotest.bool "fixbal < fix" true Rat.(fixbal < fix)

let test_rat_to_string () =
  check Alcotest.string "45/41" "45/41" (Rat.to_string (Rat.make 45 41));
  check Alcotest.string "int" "3" (Rat.to_string (Rat.of_int 3))

let test_rat_errors () =
  Alcotest.check_raises "zero den"
    (Invalid_argument "Rat.make: zero denominator") (fun () ->
        ignore (Rat.make 1 0));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

let prop_rat_add_comm =
  qtest "Rat.add commutative"
    QCheck.(pair
              (pair (int_range (-50) 50) (int_range 1 50))
              (pair (int_range (-50) 50) (int_range 1 50)))
    (fun ((a, b), (c, d)) ->
       Rat.equal
         (Rat.add (Rat.make a b) (Rat.make c d))
         (Rat.add (Rat.make c d) (Rat.make a b)))

let prop_rat_mul_inverse =
  qtest "x * 1/x = 1 for x <> 0"
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (a, b) ->
       let x = Rat.make a b in
       Rat.equal Rat.one (Rat.mul x (Rat.inv x)))

let prop_rat_compare_vs_float =
  qtest "compare consistent with floats"
    QCheck.(pair
              (pair (int_range (-100) 100) (int_range 1 100))
              (pair (int_range (-100) 100) (int_range 1 100)))
    (fun ((a, b), (c, d)) ->
       let x = Rat.make a b and y = Rat.make c d in
       let fc = compare (Rat.to_float x) (Rat.to_float y) in
       let rc = Rat.compare x y in
       if fc = 0 then true (* float collision: exact compare knows better *)
       else (rc > 0) = (fc > 0))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "variance" (5.0 /. 3.0) (Stats.variance s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s)

let test_stats_empty () =
  let s = Stats.create () in
  check Alcotest.bool "mean nan" true (Float.is_nan (Stats.mean s));
  check Alcotest.bool "variance nan" true (Float.is_nan (Stats.variance s))

let test_stats_merge () =
  let a = Stats.create ()
  and b = Stats.create ()
  and whole = Stats.create () in
  let data = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  List.iteri
    (fun i x ->
       Stats.add whole x;
       if i < 4 then Stats.add a x else Stats.add b x)
    data;
  let m = Stats.merge a b in
  check Alcotest.int "count" (Stats.count whole) (Stats.count m);
  check (Alcotest.float 1e-9) "mean" (Stats.mean whole) (Stats.mean m);
  check (Alcotest.float 1e-9) "variance" (Stats.variance whole)
    (Stats.variance m)

let test_stats_quantile () =
  let data = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.quantile data 0.5);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.quantile data 0.0);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.quantile data 1.0);
  check (Alcotest.float 1e-9) "q25" 2.0 (Stats.quantile data 0.25)

let prop_stats_mean_bounds =
  qtest "mean between min and max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
       let s = Stats.create () in
       List.iter (Stats.add s) xs;
       Stats.mean s >= Stats.min s -. 1e-9
       && Stats.mean s <= Stats.max s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Ivec *)

let test_ivec_push_get () =
  let v = Ivec.create () in
  for i = 0 to 99 do
    Ivec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Ivec.length v);
  check Alcotest.int "get 7" 49 (Ivec.get v 7)

let test_ivec_bounds () =
  let v = Ivec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob"
    (Invalid_argument "Ivec.get: index 3 out of [0,3)") (fun () ->
        ignore (Ivec.get v 3))

let test_ivec_roundtrip () =
  let a = [| 5; 3; 8; 1 |] in
  let v = Ivec.of_array a in
  check Alcotest.(array int) "to_array" a (Ivec.to_array v)

let test_ivec_fold_iter () =
  let v = Ivec.of_array [| 1; 2; 3; 4 |] in
  check Alcotest.int "fold sum" 10 (Ivec.fold ( + ) 0 v);
  let seen = ref [] in
  Ivec.iter (fun x -> seen := x :: !seen) v;
  check Alcotest.(list int) "iter order" [ 4; 3; 2; 1 ] !seen;
  check Alcotest.bool "exists" true (Ivec.exists (fun x -> x = 3) v);
  check Alcotest.bool "not exists" false (Ivec.exists (fun x -> x = 9) v)

let prop_ivec_like_list =
  qtest "Ivec push/to_list behaves like list"
    QCheck.(list small_int)
    (fun xs ->
       let v = Ivec.create () in
       List.iter (Ivec.push v) xs;
       Array.to_list (Ivec.to_array v) = xs)


(* ------------------------------------------------------------------ *)
(* Parmap *)

let test_parmap_matches_sequential () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  check Alcotest.(list int) "same as List.map" (List.map f xs)
    (Prelude.Parmap.map ~domains:4 f xs);
  check Alcotest.(list int) "mapi indexed"
    (List.mapi (fun i x -> i + x) xs)
    (Prelude.Parmap.mapi ~domains:3 (fun i x -> i + x) xs)

let test_parmap_edge_cases () =
  check Alcotest.(list int) "empty" [] (Prelude.Parmap.map (fun x -> x) []);
  check Alcotest.(list int) "singleton" [ 7 ]
    (Prelude.Parmap.map ~domains:8 (fun x -> x + 1) [ 6 ]);
  check Alcotest.(list int) "one domain degrades to List.map" [ 2; 3 ]
    (Prelude.Parmap.map ~domains:1 (fun x -> x + 1) [ 1; 2 ])

(* A domain count outside 1..max_domains is refused before any task
   runs or any domain is spawned, so trying the bad values is safe. *)
let test_parmap_domain_count_checked () =
  let ran = ref false in
  List.iter
    (fun domains ->
       match
         Prelude.Parmap.mapi ~domains (fun _ x -> ran := true; x) [ 1; 2; 3 ]
       with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "~domains:%d must be refused" domains)
    [ 0; -1; min_int; Prelude.Parmap.max_domains + 1; max_int ];
  check Alcotest.bool "no task ran" false !ran;
  (* an empty list is refused the same way *)
  (match Prelude.Parmap.map ~domains:0 Fun.id [] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "~domains:0 on [] must be refused");
  check Alcotest.(list int) "the limit itself is accepted" [ 2 ]
    (Prelude.Parmap.map ~domains:Prelude.Parmap.max_domains succ [ 1 ])

let test_parmap_exception_propagates () =
  match
    Prelude.Parmap.map ~domains:4
      (fun x -> if x = 13 then failwith "boom" else x)
      (List.init 40 (fun i -> i))
  with
  | exception Failure m -> check Alcotest.string "message" "boom" m
  | _ -> Alcotest.fail "expected Failure"

let test_parmap_across_domain_counts () =
  (* result order and exception choice must be schedule-independent:
     identical across 1, 2 and the recommended number of domains *)
  let xs = List.init 73 (fun i -> i) in
  let f x = (x * 3) - 1 in
  let expected = List.map f xs in
  List.iter
    (fun domains ->
       check Alcotest.(list int)
         (Printf.sprintf "order with %d domains" domains)
         expected
         (Prelude.Parmap.map ~domains f xs);
       check Alcotest.(list int)
         (Printf.sprintf "mapi order with %d domains" domains)
         (List.mapi (fun i x -> (i * 100) + x) xs)
         (Prelude.Parmap.mapi ~domains (fun i x -> (i * 100) + x) xs))
    [ 1; 2; Prelude.Parmap.recommended_domains () ]

let test_parmap_first_exception_in_input_order () =
  (* several tasks fail; whatever the parallel schedule, the re-raised
     exception must be the one from the earliest failing input *)
  let failing x =
    if x = 11 then failwith "first"
    else if x = 12 || x = 30 then failwith "later"
    else x
  in
  List.iter
    (fun domains ->
       match
         Prelude.Parmap.map ~domains failing (List.init 40 (fun i -> i))
       with
       | exception Failure m ->
         check Alcotest.string
           (Printf.sprintf "earliest failure wins with %d domains" domains)
           "first" m
       | _ -> Alcotest.fail "expected Failure")
    [ 1; 2; Prelude.Parmap.recommended_domains () ]

exception Parmap_bt_probe

let[@inline never] parmap_bt_boom x =
  (* backtrace recording is per-domain in OCaml 5, so switch it on
     inside the worker, where the raise happens *)
  Printexc.record_backtrace true;
  if x >= 0 then raise Parmap_bt_probe;
  x

(* Regression: the re-raise used to be a bare [raise e], which rewrites
   the backtrace to point at the caller and loses the worker-side frames.
   [Printexc.raise_with_backtrace] must preserve the trace captured in
   the worker domain. *)
let test_parmap_backtrace_preserved () =
  (* ... and in this domain, where the re-raise happens *)
  Printexc.record_backtrace true;
  List.iter
    (fun domains ->
       match
         Prelude.Parmap.map ~domains parmap_bt_boom (List.init 8 (fun i -> i))
       with
       | exception Parmap_bt_probe ->
         let bt = Printexc.get_backtrace () in
         if not (Printexc.backtrace_status ()) then ()
         else if
           (* the worker frame must survive the cross-domain re-raise *)
           not
             (List.exists
                (fun needle ->
                   let n = String.length needle and h = String.length bt in
                   let rec at i =
                     i + n <= h && (String.sub bt i n = needle || at (i + 1))
                   in
                   at 0)
                [ "parmap_bt_boom"; "test_prelude.ml\", line" ])
         then
           Alcotest.failf
             "worker frames missing from backtrace (%d domains):\n%s" domains
             bt
       | _ -> Alcotest.fail "expected Parmap_bt_probe")
    [ 1; 3 ]

let test_parmap_domain_stats () =
  (* the observe hook reports one stat per domain, covering every task *)
  let seen = ref [] in
  let _ =
    Prelude.Parmap.mapi ~domains:3
      ~observe:(fun stats -> seen := stats)
      (fun _ x -> x)
      (List.init 10 (fun i -> i))
  in
  check Alcotest.int "one stat per domain" 3 (List.length !seen);
  check Alcotest.int "tasks partition the input" 10
    (List.fold_left
       (fun acc (s : Prelude.Parmap.domain_stat) -> acc + s.tasks)
       0 !seen)

let test_parmap_actually_parallel_zipf () =
  (* domains hitting the shared (mutex-protected) Zipf cache together *)
  let results =
    Prelude.Parmap.map ~domains:4
      (fun seed ->
         let rng = Rng.create ~seed in
         let acc = ref 0 in
         for _ = 1 to 1000 do
           acc := !acc + Rng.zipf rng ~n:50 ~s:1.2
         done;
         !acc)
      (List.init 8 (fun i -> i))
  in
  check Alcotest.int "eight results" 8 (List.length results);
  (* deterministic given seeds, whatever the parallel schedule *)
  let again =
    Prelude.Parmap.map ~domains:2
      (fun seed ->
         let rng = Rng.create ~seed in
         let acc = ref 0 in
         for _ = 1 to 1000 do
           acc := !acc + Rng.zipf rng ~n:50 ~s:1.2
         done;
         !acc)
      (List.init 8 (fun i -> i))
  in
  check Alcotest.(list int) "schedule independent" results again

(* ------------------------------------------------------------------ *)
(* Texttable *)

let test_texttable_render () =
  let t = Texttable.create ~title:"demo" ~header:[ "name"; "val" ] () in
  Texttable.set_align t [ Texttable.Left; Texttable.Right ];
  Texttable.add_row t [ "alpha"; "1" ];
  Texttable.add_row t [ "b"; "22" ];
  let s = Texttable.render t in
  check Alcotest.bool "has title" true
    (String.length s > 0 && String.sub s 0 4 = "demo");
  check Alcotest.bool "right-aligned value" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "b       22") lines)

let test_texttable_too_many_cells () =
  let t = Texttable.create ~header:[ "a" ] () in
  Alcotest.check_raises "too many"
    (Invalid_argument "Texttable.add_row: 2 cells for 1 columns") (fun () ->
        Texttable.add_row t [ "x"; "y" ])

let test_texttable_cells () =
  check Alcotest.string "nan" "-" (Texttable.cell_float nan);
  check Alcotest.string "ratio" "1.3333" (Texttable.cell_ratio (4.0 /. 3.0))

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "uniformish" `Quick test_rng_int_uniformish;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bool balanced" `Quick test_rng_bool_balanced;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "zipf ranks" `Quick test_rng_zipf_ranks;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          prop_int_in_range;
          prop_int_in_bounds;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "arith" `Quick test_rat_arith;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "paper bounds order" `Quick
            test_rat_paper_bounds_order;
          Alcotest.test_case "to_string" `Quick test_rat_to_string;
          Alcotest.test_case "errors" `Quick test_rat_errors;
          prop_rat_add_comm;
          prop_rat_mul_inverse;
          prop_rat_compare_vs_float;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          prop_stats_mean_bounds;
        ] );
      ( "ivec",
        [
          Alcotest.test_case "push/get" `Quick test_ivec_push_get;
          Alcotest.test_case "bounds" `Quick test_ivec_bounds;
          Alcotest.test_case "roundtrip" `Quick test_ivec_roundtrip;
          Alcotest.test_case "fold/iter" `Quick test_ivec_fold_iter;
          prop_ivec_like_list;
        ] );
      ( "parmap",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parmap_matches_sequential;
          Alcotest.test_case "edge cases" `Quick test_parmap_edge_cases;
          Alcotest.test_case "domain count checked" `Quick
            test_parmap_domain_count_checked;
          Alcotest.test_case "exception propagates" `Quick
            test_parmap_exception_propagates;
          Alcotest.test_case "order across domain counts" `Quick
            test_parmap_across_domain_counts;
          Alcotest.test_case "first exception in input order" `Quick
            test_parmap_first_exception_in_input_order;
          Alcotest.test_case "backtrace preserved" `Quick
            test_parmap_backtrace_preserved;
          Alcotest.test_case "domain stats" `Quick test_parmap_domain_stats;
          Alcotest.test_case "parallel zipf determinism" `Quick
            test_parmap_actually_parallel_zipf;
        ] );
      ( "texttable",
        [
          Alcotest.test_case "render" `Quick test_texttable_render;
          Alcotest.test_case "too many cells" `Quick
            test_texttable_too_many_cells;
          Alcotest.test_case "cells" `Quick test_texttable_cells;
        ] );
    ]
