(* Tests for the observability layer: the metric registry and its merge
   law, the exporters' round-trips, span timing, the Parmap adapter, and
   the engine / streaming-optimum instrumentation hooks. *)

module Metrics = Obs.Metrics
module Export = Obs.Export
module Stats = Prelude.Stats

let check = Alcotest.check

let prop ?(count = 200) name gen p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen p)

(* ------------------------------------------------------------------ *)
(* registry *)

let test_counters () =
  let m = Metrics.create () in
  check Alcotest.int "absent is 0" 0 (Metrics.counter m "a");
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  Metrics.incr ~by:(-2) m "a";
  check Alcotest.int "1 + 4 - 2" 3 (Metrics.counter m "a");
  Metrics.set_counter m "a" 10;
  check Alcotest.int "overwritten" 10 (Metrics.counter m "a")

let test_gauges () =
  let m = Metrics.create () in
  check Alcotest.bool "absent is nan" true (Float.is_nan (Metrics.gauge m "g"));
  Metrics.set m "g" 2.5;
  Metrics.set m "g" 7.25;
  check (Alcotest.float 0.0) "last write wins" 7.25 (Metrics.gauge m "g")

let test_histograms () =
  let m = Metrics.create () in
  check Alcotest.bool "absent is None" true (Metrics.histogram m "h" = None);
  List.iter (Metrics.observe m "h") [ 1.0; 2.0; 3.0 ];
  match Metrics.histogram m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    check Alcotest.int "count" 3 (Stats.count s);
    check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean s);
    check (Alcotest.float 0.0) "min" 1.0 (Stats.min s);
    check (Alcotest.float 0.0) "max" 3.0 (Stats.max s)

let test_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  (match Metrics.set m "x" 1.0 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "gauge write into a counter accepted");
  match Metrics.observe m "x" 1.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "histogram write into a counter accepted"

let test_snapshot_sorted_and_isolated () =
  let m = Metrics.create () in
  Metrics.incr m "zz";
  Metrics.observe m "aa" 5.0;
  Metrics.set m "mm" 1.0;
  let snap = Metrics.snapshot m in
  check
    Alcotest.(list string)
    "sorted by name" [ "aa"; "mm"; "zz" ] (List.map fst snap);
  (* the snapshot's Stats payloads are private copies *)
  Metrics.observe m "aa" 100.0;
  (match List.assoc "aa" snap with
   | Metrics.Histogram s -> check Alcotest.int "copy unaffected" 1 (Stats.count s)
   | _ -> Alcotest.fail "aa is a histogram");
  Metrics.clear m;
  check Alcotest.int "cleared" 0 (List.length (Metrics.snapshot m))

let test_merge_units () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:3 a "c";
  Metrics.incr ~by:4 b "c";
  Metrics.set a "g" 1.5;
  Metrics.set b "g" 2.0;
  Metrics.observe a "h" 1.0;
  Metrics.observe b "h" 3.0;
  Metrics.incr a "only_a";
  Metrics.incr b "only_b";
  let merged = Metrics.merge (Metrics.snapshot a) (Metrics.snapshot b) in
  (match List.assoc "c" merged with
   | Metrics.Counter 7 -> ()
   | _ -> Alcotest.fail "counters must add");
  (match List.assoc "g" merged with
   | Metrics.Gauge g -> check (Alcotest.float 1e-9) "gauges add" 3.5 g
   | _ -> Alcotest.fail "g is a gauge");
  (match List.assoc "h" merged with
   | Metrics.Histogram s ->
     check Alcotest.int "histogram count" 2 (Stats.count s);
     check (Alcotest.float 1e-9) "histogram mean" 2.0 (Stats.mean s)
   | _ -> Alcotest.fail "h is a histogram");
  check Alcotest.bool "union keeps both singletons" true
    (List.mem_assoc "only_a" merged && List.mem_assoc "only_b" merged);
  check
    Alcotest.(list string)
    "merge output sorted"
    (List.sort compare (List.map fst merged))
    (List.map fst merged);
  (* kind clash across snapshots *)
  let c = Metrics.create () in
  Metrics.set c "c" 1.0;
  (match Metrics.merge (Metrics.snapshot a) (Metrics.snapshot c) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "kind clash accepted");
  check Alcotest.int "merge_all []" 0 (List.length (Metrics.merge_all []))

let test_merge_into () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:2 a "c";
  Metrics.incr ~by:5 b "c";
  Metrics.observe b "h" 4.0;
  Metrics.merge_into a (Metrics.snapshot b);
  check Alcotest.int "counter folded" 7 (Metrics.counter a "c");
  match Metrics.histogram a "h" with
  | Some s -> check Alcotest.int "histogram folded" 1 (Stats.count s)
  | None -> Alcotest.fail "histogram not folded"

let test_ambient () =
  check Alcotest.bool "unset by default" true (Metrics.ambient () = None);
  let m = Metrics.create () in
  Metrics.set_ambient (Some m);
  check Alcotest.bool "resolve falls back" true
    (match Metrics.resolve None with Some x -> x == m | None -> false);
  let o = Metrics.create () in
  check Alcotest.bool "explicit wins" true
    (match Metrics.resolve (Some o) with Some x -> x == o | None -> false);
  Metrics.set_ambient None;
  check Alcotest.bool "resolve None when unset" true
    (Metrics.resolve None = None)

(* ------------------------------------------------------------------ *)
(* handles *)

(* minor words [f] allocates, net of the measurement itself *)
let minor_words f =
  let words g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  words f -. words ignore

let test_counter_handle_allocation () =
  let m = Metrics.create () in
  let c = Metrics.register_counter m "c" in
  Metrics.add c 1;
  let w =
    minor_words (fun () ->
        for i = 1 to 10_000 do
          Metrics.add c i
        done)
  in
  check (Alcotest.float 0.0) "minor words for 10 000 adds" 0.0 w;
  check Alcotest.int "sum" (1 + (10_000 * 10_001 / 2)) (Metrics.counter m "c")

let test_counter_handle_domains () =
  let per_domain = 200_000 in
  List.iter
    (fun domains ->
       let m = Metrics.create () in
       let c = Metrics.register_counter m "shared" in
       let workers =
         List.init domains (fun k ->
             Domain.spawn (fun () ->
                 (* each domain takes its own handle to the same slot *)
                 let mine =
                   if k = 0 then c else Metrics.register_counter m "shared"
                 in
                 for _ = 1 to per_domain do
                   Metrics.add mine 1
                 done))
       in
       List.iter Domain.join workers;
       check Alcotest.int
         (Printf.sprintf "%d domains sum exactly" domains)
         (domains * per_domain)
         (Metrics.counter m "shared"))
    [ 2; 4 ]

let test_handle_and_name_share_a_slot () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "c";
  let c = Metrics.register_counter m "c" in
  Metrics.add c 4;
  Metrics.incr m "c";
  check Alcotest.int "by name and by handle add up" 8 (Metrics.counter m "c");
  let g = Metrics.register_gauge m "g" in
  Metrics.put g 1.5;
  check (Alcotest.float 0.0) "gauge by handle, read by name" 1.5
    (Metrics.gauge m "g");
  let h = Metrics.register_histogram m "h" in
  Metrics.observe m "h" 1.0;
  Metrics.record h 3.0;
  (match Metrics.histogram m "h" with
   | Some s ->
     check Alcotest.int "both observations" 2 (Stats.count s);
     check (Alcotest.float 1e-12) "mean" 2.0 (Stats.mean s)
   | None -> Alcotest.fail "histogram missing");
  (* binding a handle alone leaves the dumps as they were *)
  let _ = Metrics.register_counter m "quiet" in
  check Alcotest.bool "a bound, unrecorded name is not in the snapshot" false
    (List.mem_assoc "quiet" (Metrics.snapshot m));
  let z = Metrics.register_counter m "zero" in
  Metrics.add z 0;
  check Alcotest.bool "an add of 0 records the counter" true
    (List.assoc_opt "zero" (Metrics.snapshot m) = Some (Metrics.Counter 0))

let test_handle_kind_clash () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.set m "g" 1.0;
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ " accepted")
  in
  raises "gauge handle on a counter" (fun () ->
      ignore (Metrics.register_gauge m "c"));
  raises "histogram handle on a counter" (fun () ->
      ignore (Metrics.register_histogram m "c"));
  raises "counter handle on a gauge" (fun () ->
      ignore (Metrics.register_counter m "g"));
  (* a bound but unrecorded name keeps its kind too *)
  ignore (Metrics.register_histogram m "h");
  raises "counter write into a bound histogram" (fun () -> Metrics.incr m "h")

let test_clear_keeps_handles () =
  let m = Metrics.create () in
  let c = Metrics.register_counter m "c" in
  let g = Metrics.register_gauge m "g" in
  let h = Metrics.register_histogram m "h" in
  Metrics.add c 5;
  Metrics.put g 2.0;
  Metrics.record h 1.0;
  Metrics.clear m;
  check Alcotest.int "clear empties the snapshot" 0
    (List.length (Metrics.snapshot m));
  check Alcotest.int "counter zeroed" 0 (Metrics.counter m "c");
  check Alcotest.bool "gauge unset" true (Float.is_nan (Metrics.gauge m "g"));
  check Alcotest.bool "histogram gone" true (Metrics.histogram m "h" = None);
  (* the handles stay attached: later updates show in the registry *)
  Metrics.add c 2;
  Metrics.put g 7.0;
  Metrics.record h 4.0;
  check Alcotest.int "counter after clear" 2 (Metrics.counter m "c");
  check (Alcotest.float 0.0) "gauge after clear" 7.0 (Metrics.gauge m "g");
  (match Metrics.histogram m "h" with
   | Some s ->
     check Alcotest.int "one observation after clear" 1 (Stats.count s);
     check (Alcotest.float 0.0) "only the new one" 4.0 (Stats.mean s)
   | None -> Alcotest.fail "histogram detached by clear");
  check
    Alcotest.(list string)
    "snapshot after clear" [ "c"; "g"; "h" ]
    (List.map fst (Metrics.snapshot m));
  (* names keep their kinds across clear *)
  match Metrics.set m "c" 1.0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "clear unbound a counter's kind"

(* The tentpole law: recording a workload split across k registries and
   merging the snapshots equals recording everything into one registry.
   Ops are counter increments and histogram observations over a small
   name pool. *)
let prop_merge_equals_single =
  let op =
    QCheck.(
      pair (int_range 0 3)
        (pair bool (float_range (-100.) 100.)))
  in
  prop ~count:150 "merged shards = single registry"
    QCheck.(pair (int_range 1 5) (small_list op))
    (fun (shards, ops) ->
       let single = Metrics.create () in
       let parts = Array.init shards (fun _ -> Metrics.create ()) in
       List.iteri
         (fun i (name_i, (is_counter, v)) ->
            let part = parts.(i mod shards) in
            if is_counter then begin
              let name = Printf.sprintf "c%d" name_i in
              let by = int_of_float v in
              Metrics.incr ~by single name;
              Metrics.incr ~by part name
            end
            else begin
              let name = Printf.sprintf "h%d" name_i in
              Metrics.observe single name v;
              Metrics.observe part name v
            end)
         ops;
       let merged =
         Metrics.merge_all
           (Array.to_list (Array.map Metrics.snapshot parts))
       in
       let expect = Metrics.snapshot single in
       List.length merged = List.length expect
       && List.for_all2
            (fun (n1, v1) (n2, v2) ->
               n1 = n2
               &&
               match (v1, v2) with
               | Metrics.Counter a, Metrics.Counter b -> a = b
               | Metrics.Histogram a, Metrics.Histogram b ->
                 Stats.count a = Stats.count b
                 && abs_float (Stats.mean a -. Stats.mean b) < 1e-6
                 && abs_float (Stats.m2 a -. Stats.m2 b) < 1e-3
                 && Stats.min a = Stats.min b
                 && Stats.max a = Stats.max b
               | _ -> false)
            merged expect)

(* ------------------------------------------------------------------ *)
(* exporters *)

let mixed_snapshot () =
  let m = Metrics.create () in
  Metrics.incr ~by:42 m "engine.served";
  Metrics.incr ~by:(-3) m "debt";
  Metrics.set m "load.factor" 1.0625;
  List.iter (Metrics.observe m "lat.us") [ 0.125; 3.5; 17.75; 2.25 ];
  Metrics.snapshot m

let snapshot_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, v1) (n2, v2) ->
          n1 = n2
          &&
          match (v1, v2) with
          | Metrics.Counter x, Metrics.Counter y -> x = y
          | Metrics.Gauge x, Metrics.Gauge y -> x = y
          | Metrics.Histogram x, Metrics.Histogram y ->
            Stats.count x = Stats.count y
            && Stats.mean x = Stats.mean y
            && Stats.m2 x = Stats.m2 y
            && Stats.min x = Stats.min y
            && Stats.max x = Stats.max y
          | _ -> false)
       a b

let test_json_roundtrip () =
  let snap = mixed_snapshot () in
  check Alcotest.bool "json inverts exactly" true
    (snapshot_equal snap (Export.of_json (Export.to_json snap)))

let test_export_malformed () =
  match Export.of_json "{\"name\":\"x\"" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncated json accepted"

let test_format_of_string () =
  check Alcotest.bool "text" true (Export.format_of_string "text" = Ok Export.Text);
  check Alcotest.bool "json" true (Export.format_of_string "json" = Ok Export.Json);
  List.iter
    (fun name ->
       match Export.format_of_string name with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%s accepted" name)
    [ "csv"; "yaml" ]

(* random finite snapshots survive the JSON round-trip bit-exactly
   (%.17g is lossless for doubles) *)
let prop_export_roundtrip =
  let fin = QCheck.float_range (-1e9) 1e9 in
  prop ~count:100 "random json round-trip"
    QCheck.(
      triple (int_range (-1000) 1000) fin
        (list_of_size Gen.(int_range 1 8) fin))
    (fun (c, g, obs) ->
       let m = Metrics.create () in
       Metrics.incr ~by:c m "c";
       Metrics.set m "g" g;
       List.iter (Metrics.observe m "h") obs;
       let snap = Metrics.snapshot m in
       snapshot_equal snap (Export.of_json (Export.to_json snap)))

let test_table_render () =
  (* the text table renders one row per metric and never raises *)
  let s = Prelude.Texttable.render (Export.table (mixed_snapshot ())) in
  List.iter
    (fun needle ->
       check Alcotest.bool (needle ^ " present") true
         (let n = String.length needle and h = String.length s in
          let rec at i = i + n <= h && (String.sub s i n = needle || at (i + 1)) in
          at 0))
    [ "engine.served"; "load.factor"; "lat.us"; "counter"; "gauge"; "histogram" ]

(* ------------------------------------------------------------------ *)
(* spans *)

let test_span () =
  let m = Metrics.create () in
  let x = Obs.Span.time m "t" (fun () -> 41 + 1) in
  check Alcotest.int "value through" 42 x;
  (match Metrics.histogram m "t" with
   | Some s ->
     check Alcotest.int "one observation" 1 (Stats.count s);
     check Alcotest.bool "non-negative" true (Stats.min s >= 0.0)
   | None -> Alcotest.fail "span not recorded");
  (* time observes even when the thunk raises *)
  (match Obs.Span.time m "t" (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  check Alcotest.int "raising run recorded" 2
    (match Metrics.histogram m "t" with
     | Some s -> Stats.count s
     | None -> 0);
  Obs.Span.record None "u" (Obs.Span.start ())

(* ------------------------------------------------------------------ *)
(* parmap adapter *)

let test_instrument_parmap () =
  let m = Metrics.create () in
  let ys =
    Obs.Instrument.parmap_map ~metrics:m ~domains:3
      (fun x -> x * 2)
      (List.init 10 Fun.id)
  in
  check Alcotest.(list int) "map still maps" (List.init 10 (fun i -> 2 * i)) ys;
  check Alcotest.int "one map" 1 (Metrics.counter m "parmap.maps");
  check Alcotest.int "all tasks" 10 (Metrics.counter m "parmap.tasks");
  check (Alcotest.float 0.0) "domains gauge" 3.0
    (Metrics.gauge m "parmap.last_domains");
  match Metrics.histogram m "parmap.tasks_per_domain" with
  | Some s -> check Alcotest.int "one sample per domain" 3 (Stats.count s)
  | None -> Alcotest.fail "tasks_per_domain missing"

(* A job that raises fails the whole batch: the error names the family
   and the job, and its backtrace still holds the worker-side raise. *)
let[@inline never] job_boom i =
  if i = 5 then failwith "planted";
  i

let test_instrument_job_failure () =
  Printexc.record_backtrace true;
  let contains ~needle s =
    let n = String.length needle in
    let rec at i = i + n <= String.length s && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun domains ->
       match
         Obs.Instrument.jobs ~domains ~family:"T.fam"
           (List.init 8 (fun i ->
                (Printf.sprintf "job-%d" i, fun () -> job_boom i)))
       with
       | _ -> Alcotest.failf "a raising job must fail the map (%d domains)" domains
       | exception (Obs.Instrument.Job_failed { family; job; exn } as e) ->
         let bt = Printexc.get_backtrace () in
         check Alcotest.string "family" "T.fam" family;
         check Alcotest.string "job" "job-5" job;
         check Alcotest.bool "original exception" true
           (exn = Failure "planted");
         check Alcotest.string "printed"
           "job T.fam/job-5 raised Failure(\"planted\")"
           (Printexc.to_string e);
         if not (contains ~needle:"job_boom" bt && contains ~needle:"test_obs.ml" bt)
         then
           Alcotest.failf "worker raise frame missing (%d domains):\n%s"
             domains bt)
    [ 1; 2 ]

(* the battery's promise: the same jobs give the same results, in the
   same order, at any domain count *)
let prop_jobs_domain_invariant =
  QCheck.Test.make ~name:"parallel runner is byte-identical to serial"
    ~count:30
    QCheck.(int_range 0 40)
    (fun n ->
       let run domains =
         Obs.Instrument.jobs ~domains ~family:"det"
           (List.init n (fun i ->
                ( Printf.sprintf "case-%d" i,
                  fun () -> Printf.sprintf "%d %h" i (sqrt (float_of_int i)) )))
       in
       let serial = run 1 in
       serial = run 2 && serial = run (Prelude.Parmap.recommended_domains ()))

(* ------------------------------------------------------------------ *)
(* engine + streaming optimum hooks *)

let small_instance () =
  let rng = Prelude.Rng.create ~seed:5 in
  Adversary.Random_workload.make ~rng ~n:4 ~d:3 ~rounds:30 ~load:1.2 ()

let test_engine_metrics_consistent () =
  let m = Metrics.create () in
  let inst = small_instance () in
  let o = Sched.Engine.run ~metrics:m inst (Strategies.Global.balance ()) in
  check Alcotest.int "rounds = horizon" inst.Sched.Instance.horizon
    (Metrics.counter m "engine.rounds");
  check Alcotest.int "arrivals = requests"
    (Sched.Instance.n_requests inst)
    (Metrics.counter m "engine.arrivals");
  check Alcotest.int "served matches outcome" o.Sched.Outcome.served
    (Metrics.counter m "engine.served");
  check Alcotest.int "wasted matches outcome" o.Sched.Outcome.wasted
    (Metrics.counter m "engine.wasted");
  match Metrics.histogram m "engine.step_us" with
  | Some s ->
    check Alcotest.int "one step sample per round" inst.Sched.Instance.horizon
      (Stats.count s)
  | None -> Alcotest.fail "step latency missing"

let test_opt_stream_metrics_consistent () =
  let m = Metrics.create () in
  let inst = small_instance () in
  let v =
    Offline.Opt.final (Offline.Opt_stream.prefix_curve ~metrics:m inst)
  in
  check Alcotest.int "instrumentation does not change the optimum"
    (Offline.Opt.value inst) v;
  check Alcotest.int "augmentations = optimum" v
    (Metrics.counter m "opt_stream.augmentations");
  check Alcotest.int "arrivals = requests"
    (Sched.Instance.n_requests inst)
    (Metrics.counter m "opt_stream.arrivals");
  check Alcotest.bool "searches cover augmentations" true
    (Metrics.counter m "opt_stream.searches" >= v);
  check Alcotest.bool "warm hits bounded by successes" true
    (Metrics.counter m "opt_stream.warm_hits" <= v)

let test_ambient_reaches_harness () =
  let inst = small_instance () in
  let plain = Report.Harness.run_instance inst (Strategies.Global.fix ()) in
  let m = Metrics.create () in
  Metrics.set_ambient (Some m);
  Fun.protect
    ~finally:(fun () -> Metrics.set_ambient None)
    (fun () ->
       let r = Report.Harness.run_instance inst (Strategies.Global.fix ()) in
       check Alcotest.int "engine counters reach the ambient registry"
         r.Report.Harness.outcome.Sched.Outcome.served
         (Metrics.counter m "engine.served");
       check Alcotest.int "metrics do not change the optimum"
         plain.Report.Harness.opt r.Report.Harness.opt;
       check Alcotest.int "run_instance profiles opt_stream, a feed a round"
         inst.Sched.Instance.horizon
         (Metrics.counter m "opt_stream.rounds"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "snapshot sorted + isolated" `Quick
            test_snapshot_sorted_and_isolated;
          Alcotest.test_case "merge units" `Quick test_merge_units;
          Alcotest.test_case "merge_into" `Quick test_merge_into;
          Alcotest.test_case "ambient" `Quick test_ambient;
          Alcotest.test_case "counter handle allocates nothing" `Quick
            test_counter_handle_allocation;
          Alcotest.test_case "counter handle across domains" `Quick
            test_counter_handle_domains;
          Alcotest.test_case "handle and name share a slot" `Quick
            test_handle_and_name_share_a_slot;
          Alcotest.test_case "handle kind clash" `Quick test_handle_kind_clash;
          Alcotest.test_case "clear keeps handles" `Quick
            test_clear_keeps_handles;
          prop_merge_equals_single;
        ] );
      ( "export",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_export_malformed;
          Alcotest.test_case "format parsing" `Quick test_format_of_string;
          Alcotest.test_case "table render" `Quick test_table_render;
          prop_export_roundtrip;
        ] );
      ( "span",
        [ Alcotest.test_case "timing" `Quick test_span ] );
      ( "instrument",
        [
          Alcotest.test_case "parmap adapter" `Quick test_instrument_parmap;
        ] );
      ( "instrument jobs",
        [
          Alcotest.test_case "a raise names family and job" `Quick
            test_instrument_job_failure;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_jobs_domain_invariant ] );
      ( "hooks",
        [
          Alcotest.test_case "engine counters" `Quick
            test_engine_metrics_consistent;
          Alcotest.test_case "opt_stream counters" `Quick
            test_opt_stream_metrics_consistent;
          Alcotest.test_case "ambient reaches harness" `Quick
            test_ambient_reaches_harness;
        ] );
    ]
