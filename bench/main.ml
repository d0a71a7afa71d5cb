(* The bench harness: the two B.* families only this harness can run,
   each with checks that feed the exit code (see EXPERIMENTS.md).
   B.micro times the machinery with Bechamel; B.scale sweeps system size
   to n=10^4, past what one perfbench run holds.  The server, cluster
   and scoring pipelines are timed by perfbench, and the reproduction
   experiments run through [reqsched exp].  [--json FILE] dumps every
   measurement (the committed BENCH_scale.json is a quick-run dump);
   [--help] lists the other options, which are shared with
   [reqsched]. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* bench checks and the --json record sink *)

let bench_check_failures = ref 0

let check name ok =
  Printf.printf "check: %s: %b\n%!" name ok;
  if not ok then incr bench_check_failures

(* Every bench family reports its measurements here; --json FILE dumps
   them as one array of {family, params, metric, value} objects. *)
let json_records :
  (string * (string * string) list * string * float) list ref = ref []

let record ~family ~params ~metric value =
  json_records := (family, params, metric, value) :: !json_records

let write_json path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (family, params, metric, value) ->
       if i > 0 then Buffer.add_string buf ",\n";
       Buffer.add_string buf
         (Printf.sprintf
            "  {\"family\": %S, \"params\": {%s}, \"metric\": %S, \
             \"value\": %s}"
            family
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "%S: %S" k v)
                  params))
            metric
            (Printf.sprintf "%.17g" value)))
    (List.rev !json_records);
  Buffer.add_string buf "\n]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

(* ------------------------------------------------------------------ *)
(* micro-benchmarks *)

let thm21_instance =
  lazy (Adversary.Thm21.make ~d:4 ~phases:3).Adversary.Scenario.instance

let thm23_instance =
  lazy (Adversary.Thm23.make ~d:4 ~phases:3).Adversary.Scenario.instance

let random_instance =
  lazy
    (let rng = Prelude.Rng.create ~seed:7 in
     Adversary.Random_workload.make ~rng ~n:8 ~d:4 ~rounds:60 ~load:1.1 ())

let micro_tests () =
  let run_strategy inst factory () =
    ignore (Sched.Engine.run (Lazy.force inst) factory : Sched.Outcome.t)
  in
  let gate_request =
    Sched.Request.of_array ~id:123456 ~arrival:30864 ~alternatives:[| 45; 12 |]
      ~deadline:4
  in
  let offer =
    Cluster.Wire.data_env ~sender:123456 ~dst:45 ~deadline_key:30867
      (Cluster.Wire.Offer gate_request)
  and full = Cluster.Wire.Reply (Cluster.Wire.Full { q = 123456; res = 45 }) in
  [
    (* the cluster's wire gate, per line: render, length check, parse
       and typed compare of a typical offer and reply *)
    Test.make ~name:"cluster/gate-offer-line"
      (Staged.stage (fun () ->
           ignore (Cluster.Transport.roundtrip offer : Cluster.Wire.t)));
    Test.make ~name:"cluster/gate-full-reply"
      (Staged.stage (fun () ->
           ignore (Cluster.Transport.roundtrip full : Cluster.Wire.t)));
    (* Table 1 rows 1-2: the frozen-assignment solver *)
    Test.make ~name:"T1.fix/engine-run-thm2.1"
      (Staged.stage (fun () ->
           run_strategy thm21_instance (Strategies.Global.fix ()) ()));
    (* Table 1 rows 3-5: the tiered full-reschedule solver *)
    Test.make ~name:"T1.balance/engine-run-thm2.3"
      (Staged.stage (fun () ->
           run_strategy thm23_instance (Strategies.Global.balance ()) ()));
    (* Table 1 row 6: one adaptive phase *)
    Test.make ~name:"T1.any/adaptive-thm2.6"
      (Staged.stage (fun () ->
           let adv = Adversary.Thm26.create ~d:3 ~phases:1 in
           ignore
             (Sched.Engine.run_adaptive ~n:Adversary.Thm26.n_resources ~d:3
                ~last_arrival_round:3
                ~adversary:(Adversary.Thm26.adversary adv)
                (Strategies.Global.eager ())
               : Sched.Outcome.t)));
    (* the offline optimum every experiment divides by (the streamed
       fold), and its Hopcroft-Karp oracle on the same instance *)
    Test.make ~name:"OPT/value-thm2.1"
      (Staged.stage (fun () ->
           ignore (Offline.Opt.value (Lazy.force thm21_instance) : int)));
    Test.make ~name:"OPT/hopcroft-karp-thm2.1"
      (Staged.stage (fun () ->
           ignore (Offline.Opt.expanded (Lazy.force thm21_instance) : int)));
    Test.make ~name:"OPT/hopcroft-karp"
      (Staged.stage (fun () ->
           ignore (Offline.Opt.expanded (Lazy.force random_instance) : int)));
    (* local strategies over the message-passing simulator *)
    Test.make ~name:"E.local/local-eager-run"
      (Staged.stage (fun () ->
           run_strategy random_instance (Localstrat.Local.eager ()) ()));
    (* the EDF baseline of the average-case figure *)
    Test.make ~name:"F.avgcase/edf-run"
      (Staged.stage (fun () ->
           run_strategy random_instance (Strategies.Edf.independent ()) ()));
    (* the greedy baselines of F.greedy *)
    Test.make ~name:"F.greedy/twochoice-run"
      (Staged.stage (fun () ->
           run_strategy random_instance
             (Strategies.Twochoice.least_loaded ())
             ()));
    (* trace generation for F.placement *)
    Test.make ~name:"F.placement/session-trace"
      (Staged.stage (fun () ->
           let rng = Prelude.Rng.create ~seed:11 in
           let placement =
             Dataserver.Placement.random ~rng ~disks:8 ~items:100 ~copies:2
           in
           ignore
             (Dataserver.Trace.sessions ~rng ~placement ~rounds:60
                ~arrivals_per_round:1.5 ~mean_length:5 ~d:4 ()
               : Sched.Instance.t * Dataserver.Trace.session_stats)));
    (* the Hall capacity bound used as an analytic cross-check *)
    Test.make ~name:"OPT/hall-bound"
      (Staged.stage (fun () ->
           ignore
             (Analysis.Hall.opt_upper_bound (Lazy.force random_instance)
               : int)));
    (* the streaming OPT-prefix tracker vs its from-scratch baseline *)
    Test.make ~name:"OPT.stream/prefix-curve"
      (Staged.stage (fun () ->
           ignore
             (Offline.Opt_stream.prefix_curve (Lazy.force random_instance)
               : int array)));
    Test.make ~name:"OPT.stream/naive-prefix-curve"
      (Staged.stage (fun () ->
           ignore
             (Offline.Opt_stream.naive_prefix_curve
                (Lazy.force random_instance)
               : int array)));
  ]

(* A direct scaling table: microseconds per engine round as the system
   grows -- the systems-facing cost model of the matching strategies.
   Every shape times the warm-start kernel against the from-scratch
   rebuild oracle and compares their outcomes: a disagreement is a
   correctness bug, not a benchmark artifact, so both checks feed the
   exit code. *)
let outcomes_agree (a : Sched.Outcome.t) (b : Sched.Outcome.t) =
  a.Sched.Outcome.served_at = b.Sched.Outcome.served_at
  && a.Sched.Outcome.wasted = b.Sched.Outcome.wasted
  && a.Sched.Outcome.per_round_served = b.Sched.Outcome.per_round_served

let run_scale ~quick =
  (* Two tiers.  `Oracle shapes time every solver against the
     from-scratch rebuild oracle (seconds per round by n=128, so rounds
     shrink with size).  Past that the oracle is unaffordable: `Fix
     shapes time only the fix kernel next to the linear strategies.
     Skipped cells print "-".  On `Oracle shapes A_eager's two solvers
     are timed and compared too; their times go to the JSON only, and
     [run_full_family] prints the eager kernel. *)
  let shapes =
    if quick then
      [ (4, 2, 40, `Oracle); (8, 4, 40, `Oracle); (1024, 8, 3, `Fix);
        (4096, 8, 2, `Fix) ]
    else
      [ (4, 2, 100, `Oracle); (8, 4, 100, `Oracle); (16, 4, 100, `Oracle);
        (16, 8, 100, `Oracle); (32, 8, 100, `Oracle); (64, 8, 60, `Oracle);
        (128, 8, 30, `Oracle); (256, 8, 20, `Fix); (1024, 8, 6, `Fix);
        (4096, 8, 2, `Fix); (10000, 8, 2, `Fix) ]
  in
  let table =
    Prelude.Texttable.create
      ~title:
        "B.scale  --  us/round vs system size: warm-start kernel vs \
         rebuild oracle (random load 1.1, mean over the run)"
      ~header:
        [ "n"; "d"; "requests"; "fix kern"; "fix reb"; "x";
          "bal kern"; "bal reb"; "x"; "local"; "2choice"; "agree" ]
      ()
  in
  let all_agree = ref true and never_slower = ref true in
  List.iter
    (fun (n, d, rounds, tier) ->
       let rng = Prelude.Rng.create ~seed:21 in
       let inst =
         Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load:1.1 ()
       in
       let horizon = float_of_int inst.Sched.Instance.horizon in
       (* best-of-reps on the small shapes de-noises the never-slower
          assertion; the big shapes are long enough to be stable *)
       let reps = if n <= 16 then 3 else 1 in
       let time factory =
         let best = ref infinity and out = ref None in
         for _ = 1 to reps do
           let t0 = Unix.gettimeofday () in
           let o = Sched.Engine.run inst factory in
           let us = (Unix.gettimeofday () -. t0) *. 1e6 /. horizon in
           if us < !best then best := us;
           out := Some o
         done;
         (!best, Option.get !out)
       in
       let params =
         [ ("n", string_of_int n); ("d", string_of_int d);
           ("rounds", string_of_int rounds) ]
       in
       let rec_metric metric v = record ~family:"B.scale" ~params ~metric v in
       let local, _ = time (Localstrat.Local.eager ()) in
       let twochoice, _ = time (Strategies.Twochoice.least_loaded ()) in
       let fix_k = time (Strategies.Global.fix ()) in
       let oracle =
         match tier with
         | `Oracle ->
           let fix_r, out_fix_r =
             time (Strategies.Global.fix ~solver:Strategies.Global.Rebuild ())
           in
           let bal_k, out_bal_k = time (Strategies.Global.balance ()) in
           let bal_r, out_bal_r =
             time
               (Strategies.Global.balance ~solver:Strategies.Global.Rebuild ())
           in
           let eag_k, out_eag_k = time (Strategies.Global.eager ()) in
           let eag_r, out_eag_r =
             time
               (Strategies.Global.eager ~solver:Strategies.Global.Rebuild ())
           in
           rec_metric "eager_kernel_us_per_round" eag_k;
           rec_metric "eager_rebuild_us_per_round" eag_r;
           let _, out_fix_k = fix_k in
           let agree =
             outcomes_agree out_fix_k out_fix_r
             && outcomes_agree out_bal_k out_bal_r
             && outcomes_agree out_eag_k out_eag_r
           in
           if not agree then all_agree := false;
           (* 10% tolerance absorbs scheduler jitter on the tiny shapes *)
           if fst fix_k > fix_r *. 1.1 || bal_k > bal_r *. 1.1
              || eag_k > eag_r *. 1.1
           then never_slower := false;
           Some (fix_r, bal_k, bal_r, agree)
         | `Fix -> None
       in
       rec_metric "local_eager_us_per_round" local;
       rec_metric "twochoice_us_per_round" twochoice;
       rec_metric "fix_kernel_us_per_round" (fst fix_k);
       Option.iter
         (fun (fix_r, bal_k, bal_r, _) ->
            rec_metric "fix_rebuild_us_per_round" fix_r;
            rec_metric "balance_kernel_us_per_round" bal_k;
            rec_metric "balance_rebuild_us_per_round" bal_r)
         oracle;
       let dash = "-" in
       let cells =
         match oracle with
         | Some (fix_r, bal_k, bal_r, agree) ->
           [ Printf.sprintf "%.1f" fix_r;
             Printf.sprintf "%.1fx" (fix_r /. fst fix_k);
             Printf.sprintf "%.1f" bal_k;
             Printf.sprintf "%.1f" bal_r;
             Printf.sprintf "%.1fx" (bal_r /. bal_k);
             Printf.sprintf "%.1f" local;
             Printf.sprintf "%.1f" twochoice;
             string_of_bool agree ]
         | None ->
           [ dash; dash; dash; dash; dash;
             Printf.sprintf "%.1f" local;
             Printf.sprintf "%.1f" twochoice;
             dash ]
       in
       Prelude.Texttable.add_row table
         (string_of_int n :: string_of_int d
          :: string_of_int (Sched.Instance.n_requests inst)
          :: Printf.sprintf "%.1f" (fst fix_k) :: cells))
    shapes;
  Prelude.Texttable.print table;
  check "kernel outcomes match rebuild on every shape" !all_agree;
  check "kernel never slower than rebuild (10% tolerance)" !never_slower;
  print_newline ()

(* The full-reschedule kernels past the oracle's reach: A_balance and
   A_eager re-solve the whole n*d window every round, so they are the
   costliest kernels.  Each row is one metered run on the random
   load-1.1 traffic of [run_scale]: microseconds and SPFA sweeps per
   round, and the packed label width [Graph.Warm] chose (max and mean
   over the rounds).  The check pins one word per label at n = 64,
   d = 4, the shape of the score-balance pipeline: a change that
   silently widens labels fails it. *)
let run_full_family ~quick =
  let shapes =
    if quick then [ (64, 4, 40); (256, 8, 20) ]
    else [ (64, 4, 60); (256, 8, 20); (1024, 8, 6) ]
  in
  let table =
    Prelude.Texttable.create
      ~title:
        "B.scale full family  --  A_balance and A_eager kernels (random \
         load 1.1, mean over the run)"
      ~header:
        [ "strategy"; "n"; "d"; "requests"; "us/round"; "sweeps/round";
          "words max"; "words mean" ]
      ()
  in
  let one_word = ref true in
  List.iter
    (fun (n, d, rounds) ->
       let rng = Prelude.Rng.create ~seed:21 in
       let inst =
         Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load:1.1 ()
       in
       let horizon = float_of_int inst.Sched.Instance.horizon in
       List.iter
         (fun (name, make) ->
            let m = Obs.Metrics.create () in
            let t0 = Unix.gettimeofday () in
            ignore (Sched.Engine.run inst (make m) : Sched.Outcome.t);
            let us = (Unix.gettimeofday () -. t0) *. 1e6 /. horizon in
            let sweeps =
              float_of_int (Obs.Metrics.counter m "strategy.augment_searches")
              /. horizon
            in
            let words = Obs.Metrics.histogram m "strategy.label_words" in
            let stat f = match words with Some s -> f s | None -> nan in
            let wmax = stat Prelude.Stats.max
            and wmean = stat Prelude.Stats.mean in
            if n = 64 && d = 4 && wmax <> 1. then one_word := false;
            let params =
              [ ("table", "full_family"); ("strategy", name);
                ("n", string_of_int n); ("d", string_of_int d);
                ("rounds", string_of_int rounds) ]
            in
            let rec_metric metric v =
              record ~family:"B.scale" ~params ~metric v
            in
            rec_metric "kernel_us_per_round" us;
            rec_metric "sweeps_per_round" sweeps;
            rec_metric "label_words_max" wmax;
            rec_metric "label_words_mean" wmean;
            Prelude.Texttable.add_row table
              [ name; string_of_int n; string_of_int d;
                string_of_int (Sched.Instance.n_requests inst);
                Printf.sprintf "%.1f" us; Printf.sprintf "%.2f" sweeps;
                Printf.sprintf "%.0f" wmax; Printf.sprintf "%.2f" wmean ])
         [ ("A_balance", fun m -> Strategies.Global.balance ~metrics:m ());
           ("A_eager", fun m -> Strategies.Global.eager ~metrics:m ()) ])
    shapes;
  Prelude.Texttable.print table;
  check "balance and eager labels fit one word at n=64 d=4" !one_word;
  print_newline ()

(* The scoring pipeline as a run grows: the streaming offline optimum
   ([Opt_stream.feed]) and the SLO accumulator, fed round by round from
   a live engine, on zoo mix, vod and overload at 2 000 and 8 000
   rounds, and 20 000 in the full tier.  Arrivals come from
   [Workload.Zoo.chunked] in 1 000-round chunks, so a run holds one
   chunk, not the whole instance (overload's ramp restarts each chunk,
   so every run ends at its peak).  Their per-round cost and the
   optimum's heap should not grow with the run.  The events come from
   greedy_2choice, the cheapest strategy: only the two scorers are
   timed.  The checks are deterministic: each left vertex is visited by
   at most one failed augmenting search (DESIGN 4.3.1), the optimum
   holds at most 24 words per request at every length (the growable
   graph held 57), and at the longest run it holds at most 1.5x its
   words at 2 000 rounds (the whole-graph column store grew linearly,
   10.4 words per request). *)
let run_scoring ~quick =
  let n = 64 and d = 4 in
  let lengths =
    if quick then [ 2_000; 8_000 ] else [ 2_000; 8_000; 20_000 ]
  in
  let table =
    Prelude.Texttable.create
      ~title:
        (Printf.sprintf
           "B.scale scoring  --  us/round of Opt_stream.feed and Slo vs run \
            length (zoo n=%d d=%d at each family's load, 1000-round chunks, \
            mean over the run unless p50)"
           n d)
      ~header:
        [ "family"; "rounds"; "requests"; "feed us"; "feed p50 us"; "visits";
          "failed visits"; "flips"; "words"; "words/req"; "slo us" ]
      ()
  in
  let bounded = ref true and compact = ref true and flat = ref true in
  List.iter
    (fun name ->
       let family = Option.get (Workload.Zoo.find name) in
       let words_at = Hashtbl.create 3 in
       List.iter
         (fun rounds ->
            let arrivals_at =
              Workload.Zoo.chunked family ~n ~d
                ~load:family.Workload.Zoo.default_load ~seed:1 ~chunk:1_000
            in
            let live =
              Sched.Engine.Live.create ~n ~d
                (Strategies.Twochoice.least_loaded ())
            in
            let opt = Offline.Opt_stream.create ~n_resources:n () in
            let slo = Analysis.Slo.create () in
            let slo_s = ref 0.0 and requests = ref 0 in
            let feed_s = Array.make rounds 0.0 in
            for round = 0 to rounds - 1 do
              let arrivals = arrivals_at round in
              requests := !requests + Array.length arrivals;
              let ids =
                Array.map
                  (fun (r : Sched.Request.t) ->
                     match
                       Sched.Engine.Live.submit live
                         ~alternatives:(Array.to_list r.alternatives)
                         ~deadline:r.deadline
                     with
                     | Ok id -> id
                     | Error m -> failwith m)
                  arrivals
              in
              let t0 = Unix.gettimeofday () in
              ignore (Offline.Opt_stream.feed opt arrivals : int);
              let t1 = Unix.gettimeofday () in
              let out = Sched.Engine.Live.step live in
              let t2 = Unix.gettimeofday () in
              Array.iteri
                (fun i id ->
                   Analysis.Slo.on_submit slo ~id ~round
                     ~deadline:arrivals.(i).Sched.Request.deadline)
                ids;
              List.iter
                (fun (id, _) -> Analysis.Slo.on_serve slo ~id ~round)
                out.Sched.Engine.Live.served;
              List.iter
                (fun id -> Analysis.Slo.on_expire slo ~id ~round)
                out.Sched.Engine.Live.expired;
              Analysis.Slo.on_round slo;
              let t3 = Unix.gettimeofday () in
              feed_s.(round) <- t1 -. t0;
              slo_s := !slo_s +. (t3 -. t2)
            done;
            let per_round x = x /. float_of_int rounds in
            let stats = Offline.Opt_stream.search_stats opt in
            let requests = !requests in
            let failed = stats.Graph.Augment.failed_visits in
            if failed > requests then bounded := false;
            let words = Obj.reachable_words (Obj.repr opt) in
            Hashtbl.replace words_at rounds words;
            let words_per_req =
              float_of_int words /. float_of_int requests
            in
            if words_per_req > 24. then compact := false;
            let feed_us = per_round (Array.fold_left ( +. ) 0. feed_s *. 1e6)
            and feed_p50_us = Prelude.Stats.quantile feed_s 0.5 *. 1e6
            and visits = per_round (float_of_int stats.Graph.Augment.visited)
            and flips = per_round (float_of_int stats.Graph.Augment.flips)
            and slo_us = per_round (!slo_s *. 1e6) in
            let params =
              [ ("table", "scoring"); ("family", name);
                ("n", string_of_int n); ("d", string_of_int d);
                ("rounds", string_of_int rounds) ]
            in
            let rec_metric metric v =
              record ~family:"B.scale" ~params ~metric v
            in
            rec_metric "opt_stream_feed_us_per_round" feed_us;
            rec_metric "opt_stream_feed_p50_us" feed_p50_us;
            rec_metric "opt_stream_words" (float_of_int words);
            rec_metric "opt_stream_words_per_request" words_per_req;
            rec_metric "opt_stream_visits_per_round" visits;
            rec_metric "opt_stream_failed_visits" (float_of_int failed);
            rec_metric "opt_stream_flips_per_round" flips;
            rec_metric "slo_us_per_round" slo_us;
            Prelude.Texttable.add_row table
              [ name; string_of_int rounds; string_of_int requests;
                Printf.sprintf "%.1f" feed_us;
                Printf.sprintf "%.1f" feed_p50_us;
                Printf.sprintf "%.1f" visits; string_of_int failed;
                Printf.sprintf "%.1f" flips; string_of_int words;
                Printf.sprintf "%.2f" words_per_req;
                Printf.sprintf "%.2f" slo_us ])
         lengths;
       let longest = List.fold_left max 0 lengths in
       if
         float_of_int (Hashtbl.find words_at longest)
         > 1.5 *. float_of_int (Hashtbl.find words_at 2_000)
       then flat := false)
    [ "mix"; "vod"; "overload" ];
  Prelude.Texttable.print table;
  check "failed-search visits <= requests" !bounded;
  check "opt_stream words per request <= 24" !compact;
  check "opt_stream words flat across run lengths" !flat;
  print_newline ()

let run_micro () =
  let tests = Test.make_grouped ~name:"reqsched" (micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Prelude.Texttable.create ~title:"B.micro  --  machinery timings"
      ~header:[ "benchmark"; "time per run"; "r^2" ] ()
  in
  Prelude.Texttable.set_align table
    [ Prelude.Texttable.Left; Prelude.Texttable.Right; Prelude.Texttable.Right ];
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  in
  List.iter
    (fun (name, ols) ->
       let ns =
         match Analyze.OLS.estimates ols with
         | Some (t :: _) -> t
         | Some [] | None -> nan
       in
       let cell =
         if Float.is_nan ns then "-"
         else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
         else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
         else Printf.sprintf "%.3f us" (ns /. 1e3)
       in
       let r2 =
         match Analyze.OLS.r_square ols with
         | Some r -> Printf.sprintf "%.4f" r
         | None -> "-"
       in
       Prelude.Texttable.add_row table [ name; cell; r2 ])
    (List.sort compare rows);
  Prelude.Texttable.print table;
  print_newline ()

(* ------------------------------------------------------------------ *)

let families =
  [
    ("B.micro", fun ~quick:_ -> run_micro ());
    ("B.scale",
     fun ~quick ->
       run_scale ~quick;
       run_full_family ~quick;
       run_scoring ~quick);
  ]

let main quick only json metrics =
  Cli.with_metrics metrics @@ fun _ ->
  let ( let* ) = Result.bind in
  let* selected =
    match only with None -> Ok families | Some id -> Cli.select id families
  in
  Cli.run @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "reqsched bench harness -- Berenbrink, Riedel, Scheideler (SPAA 1999)\n\
     mode: %s\n\n%!"
    (if quick then "quick" else "full");
  List.iter (fun (_, run) -> run ~quick) selected;
  Printf.printf "total: %d families, %d failed checks, %.1f s\n"
    (List.length selected) !bench_check_failures
    (Unix.gettimeofday () -. t0);
  Option.iter
    (fun path ->
       write_json path;
       Printf.printf "json: wrote %s (%d records)\n" path
         (List.length !json_records))
    json;
  if !bench_check_failures = 0 then Ok ()
  else Error (Printf.sprintf "%d failed checks" !bench_check_failures)

let () =
  let open Cmdliner in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Dump every bench measurement to $(docv) as \
                   family/params/metric/value records.")
  in
  let info =
    Cmd.info "main.exe"
      ~doc:"Run the reqsched bench families (B.micro, B.scale)."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          (Term.term_result'
             Term.(const main $ Cli.quick $ Cli.only $ json $ Cli.metrics))))
