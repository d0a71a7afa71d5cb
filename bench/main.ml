(* The bench harness: the B.* families, each a cost model of one piece
   of the machinery with checks that feed the exit code (see
   EXPERIMENTS.md).  The reproduction experiments themselves run
   through [reqsched exp].  [--json FILE] dumps every measurement (the
   committed BENCH_*.json baselines are quick-run dumps); [--help]
   lists the other options, which are shared with [reqsched]. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* bench checks and the --json record sink *)

let bench_check_failures = ref 0

let check name ok =
  Printf.printf "check: %s: %b\n%!" name ok;
  if not ok then incr bench_check_failures

(* [f ()] and its wall-clock milliseconds *)
let time_ms f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1e3 *. (Unix.gettimeofday () -. t0))

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
  [
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
    (* offline optimum engines used by every experiment *)
    Test.make ~name:"OPT/value-thm2.1"
      (Staged.stage (fun () ->
           ignore (Offline.Opt.value (Lazy.force thm21_instance) : int)));
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
     Skipped cells print "-". *)
  let shapes =
    if quick then
      [ (4, 2, 40, `Oracle); (8, 4, 40, `Oracle); (1024, 8, 3, `Fix) ]
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
           let _, out_fix_k = fix_k in
           let agree =
             outcomes_agree out_fix_k out_fix_r
             && outcomes_agree out_bal_k out_bal_r
           in
           if not agree then all_agree := false;
           (* 10% tolerance absorbs scheduler jitter on the tiny shapes *)
           if fst fix_k > fix_r *. 1.1 || bal_k > bal_r *. 1.1
           then never_slower := false;
           Some (fix_r, bal_k, bal_r, agree)
         | `Fix -> None
       in
       let params =
         [ ("n", string_of_int n); ("d", string_of_int d);
           ("rounds", string_of_int rounds) ]
       in
       let rec_metric metric v = record ~family:"B.scale" ~params ~metric v in
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

(* The served cost model: the same instance replayed through the full
   server stack ([reqsched load] open-loop against a manual-tick
   unix-socket server), kernel vs rebuild.  Manual ticks make the
   decision stream a deterministic function of the instance, so the two
   solvers must also produce byte-identical decision logs end to end --
   a differential check through sharding, the wire protocol and the
   live engine, not just Engine.run. *)
let run_serve ~quick =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched-bench-serve-%d.sock" (Unix.getpid ()))
  in
  let serve_once ?(domains = 0) ~inst ~n ~d ~shards ~strategy ~batch () =
    if Sys.file_exists sock then Sys.remove sock;
    let cfg =
      {
        Serve.Server.addr = Serve.Server.Unix_sock sock;
        n_resources = n;
        d;
        shards;
        domains;
        strategy;
        tick = `Manual;
        queue_capacity = 8192;
        max_batch = 512;
        outbox_capacity = 8192;
        read_timeout = 10.0;
        name = "bench";
      }
    in
    match Serve.Server.start cfg with
    | Error msg -> Error msg
    | Ok srv ->
      let rep =
        Serve.Client.open_loop ~addr:cfg.Serve.Server.addr ~inst
          ~tick:`Manual ~batch ()
      in
      Serve.Server.drain srv;
      ignore (Serve.Server.wait srv : Obs.Metrics.snapshot);
      rep
  in
  (* Part 1: the solver differential.  Manual ticks make the decision
     stream a deterministic function of the instance, so kernel and
     rebuild must produce byte-identical decision logs end to end -- a
     differential check through sharding, the wire protocol and the
     live engine, not just Engine.run. *)
  let n = 16 and d = 4 in
  let rounds = if quick then 60 else 240 in
  let rng = Prelude.Rng.create ~seed:55 in
  let inst = Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load:1.1 () in
  let run_solver solver =
    serve_once ~inst ~n ~d ~shards:2
      ~strategy:(fun ~shard:_ ~metrics:_ -> Strategies.Global.balance ~solver ())
      ~batch:1 ()
  in
  (match
     ( run_solver Strategies.Global.Kernel,
       run_solver Strategies.Global.Rebuild )
   with
   | Error msg, _ | _, Error msg ->
     Printf.printf "B.serve: solver differential skipped (%s)\n\n%!" msg
   | Ok kern, Ok reb ->
     let table =
       Prelude.Texttable.create
         ~title:
           (Printf.sprintf
              "B.serve  --  open-loop replay through the server (n=%d d=%d \
               %d rounds, 2 shards, A_balance, manual tick)"
              n d rounds)
         ~header:
           [ "solver"; "submitted"; "scheduled"; "duration s"; "rounds/s" ]
         ()
     in
     let row name (r : Serve.Client.report) =
       let rps = float_of_int rounds /. r.Serve.Client.duration in
       record ~family:"B.serve"
         ~params:
           [ ("n", string_of_int n); ("d", string_of_int d);
             ("rounds", string_of_int rounds); ("solver", name) ]
         ~metric:"rounds_per_s" rps;
       Prelude.Texttable.add_row table
         [
           name;
           string_of_int r.Serve.Client.submitted;
           string_of_int r.Serve.Client.scheduled;
           Printf.sprintf "%.3f" r.Serve.Client.duration;
           Printf.sprintf "%.0f" rps;
         ]
     in
     row "kernel" kern;
     row "rebuild" reb;
     Prelude.Texttable.print table;
     check "served decisions: kernel == rebuild byte-identical"
       (Serve.Client.render_decisions kern
        = Serve.Client.render_decisions reb);
     print_newline ());
  (* Part 2: the throughput push.  A high-fanout workload (hundreds of
     requests per round) replayed per-line (batch=1) and batched
     (batch=64) against a 4-shard server running the O(1)-per-request
     two-choice strategy, so the wire/admission path — not the engine —
     dominates.  Same instance, manual lock-step: the decision logs
     must stay byte-identical, batching may only change the speed. *)
  let n2 = 64 and d2 = 4 in
  let rounds2 = if quick then 30 else 120 in
  let rng2 = Prelude.Rng.create ~seed:56 in
  let inst2 =
    Adversary.Random_workload.make ~rng:rng2 ~n:n2 ~d:d2 ~rounds:rounds2
      ~load:6.0 ()
  in
  let strategy2 ~shard:_ ~metrics:_ = Strategies.Twochoice.least_loaded () in
  (* best-of-3 fresh-server runs by [key], after a compaction: when the
     whole bench runs, the Bechamel micro families leave an inflated
     major heap behind, and on an oversubscribed box one unlucky GC
     pause or scheduler stall is enough to blur the >=2x assertions *)
  let best_of_3 ~key ?domains ~batch () =
    Gc.compact ();
    let best = ref None in
    for _ = 1 to 3 do
      match
        serve_once ?domains ~inst:inst2 ~n:n2 ~d:d2 ~shards:4
          ~strategy:strategy2 ~batch ()
      with
      | Error _ -> ()
      | Ok r ->
        (match !best with
         | Some b when key b <= key r -> ()
         | _ -> best := Some r)
    done;
    Option.to_result ~none:"all runs failed" !best
  in
  let req_per_s (r : Serve.Client.report) =
    if r.duration > 0.0 then float_of_int r.submitted /. r.duration else 0.0
  in
  let rtt_ms (r : Serve.Client.report) p =
    if Array.length r.rtt_samples = 0 then nan
    else 1e3 *. Prelude.Stats.quantile r.rtt_samples p
  in
  let run_load batch =
    best_of_3 ~key:(fun r -> r.Serve.Client.submit_s) ~batch ()
  in
  (match run_load 1, run_load 64 with
   | Error msg, _ | _, Error msg ->
     Printf.printf "B.serve: batching comparison skipped (%s)\n\n%!" msg
   | Ok perline, Ok batched ->
     let table =
       Prelude.Texttable.create
         ~title:
           (Printf.sprintf
              "B.serve  --  per-line vs batched submission (n=%d d=%d %d \
               rounds, load 6.0, 4 shards, greedy_2choice, manual tick)"
              n2 d2 rounds2)
         ~header:
           [ "mode"; "submitted"; "duration s"; "req/s"; "submit req/s";
             "p50 ms"; "p99 ms" ]
         ()
     in
     let row name (r : Serve.Client.report) =
       let rqs = req_per_s r in
       (* the submission-path rate isolates what batching accelerates:
          seconds spent rendering and writing frames, apart from the
          lock-step round-trips that dominate [duration] *)
       let srqs =
         if r.Serve.Client.submit_s > 0.0 then
           float_of_int r.Serve.Client.submitted /. r.Serve.Client.submit_s
         else 0.0
       in
       let q = rtt_ms r in
       let params =
         [ ("n", string_of_int n2); ("d", string_of_int d2);
           ("rounds", string_of_int rounds2); ("mode", name) ]
       in
       List.iter
         (fun (metric, v) -> record ~family:"B.serve" ~params ~metric v)
         [ ("throughput_req_per_s", rqs);
           ("submit_throughput_req_per_s", srqs);
           ("latency_p50_ms", q 0.5); ("latency_p99_ms", q 0.99) ];
       Prelude.Texttable.add_row table
         [
           name;
           string_of_int r.Serve.Client.submitted;
           Printf.sprintf "%.3f" r.Serve.Client.duration;
           Printf.sprintf "%.0f" rqs;
           Printf.sprintf "%.0f" srqs;
           Printf.sprintf "%.2f" (q 0.5);
           Printf.sprintf "%.2f" (q 0.99);
         ];
       (rqs, srqs)
     in
     let perline_rqs, perline_srqs = row "per-line" perline in
     let batched_rqs, batched_srqs = row "batched x64" batched in
     Prelude.Texttable.print table;
     check "served decisions: batched == per-line byte-identical"
       (Serve.Client.render_decisions perline
        = Serve.Client.render_decisions batched);
     (* the submission path is where the batch frame pays off; the
        end-to-end rate also improves, but on a single-core host the
        serialized server+client pipeline bounds that gain, so the
        end-to-end check only guards against regressions.  The 2x
        submit-path margin is likewise core-aware: with one core the
        submit window is exactly where the OS slices in the five server
        domains, which adds enough run-to-run variance (observed
        1.6x-4.4x across identical runs) that the strict margin flakes
        — there the check only asserts a clear win. *)
     (if Domain.recommended_domain_count () >= 2 then
        check "batched submission path >= 2x per-line"
          (batched_srqs >= 2.0 *. perline_srqs)
      else
        check "batched submission path beats per-line (single-core)"
          (batched_srqs >= 1.2 *. perline_srqs));
     check "batched end-to-end throughput never slower"
       (batched_rqs >= 0.95 *. perline_rqs);
     print_newline ());
  (* Part 3: the domain-scaling family.  The same high-fanout workload
     on 4 shards, stepped by 1, 2 and 4 worker domains, per-line and
     batched.  Manual lock-step means the decision log is a function of
     the instance alone — spreading the shards over fewer or more
     domains may only change the speed.  The >=2x scaling assertion is
     core-aware: on boxes with fewer than 4 cores the extra domains
     just time-slice one core, so only never-slower (with tolerance)
     is checked there. *)
  let cores = Domain.recommended_domain_count () in
  let run_domains ~domains ~batch =
    best_of_3 ~key:(fun r -> r.Serve.Client.duration) ~domains ~batch ()
  in
  let grid =
    List.concat_map
      (fun domains ->
         List.map (fun batch -> (domains, batch)) [ 1; 64 ])
      [ 1; 2; 4 ]
  in
  let results =
    List.filter_map
      (fun (domains, batch) ->
         match run_domains ~domains ~batch with
         | Error msg ->
           Printf.printf
             "B.serve: domain scaling point (domains=%d batch=%d) skipped \
              (%s)\n%!"
             domains batch msg;
           None
         | Ok r -> Some ((domains, batch), r))
      grid
  in
  if List.length results = List.length grid then begin
    let table =
      Prelude.Texttable.create
        ~title:
          (Printf.sprintf
             "B.serve  --  domain scaling (n=%d d=%d %d rounds, load 6.0, \
              4 shards, greedy_2choice, manual tick, %d core(s))"
             n2 d2 rounds2 cores)
        ~header:
          [ "domains"; "mode"; "req/s"; "p50 ms"; "p99 ms" ]
        ()
    in
    let stats ((domains, batch), (r : Serve.Client.report)) =
      let mode = if batch = 1 then "per-line" else "batched x64" in
      let rqs = req_per_s r and q = rtt_ms r in
      let params =
        [ ("n", string_of_int n2); ("d", string_of_int d2);
          ("rounds", string_of_int rounds2);
          ("domains", string_of_int domains); ("mode", mode) ]
      in
      List.iter
        (fun (metric, v) -> record ~family:"B.serve" ~params ~metric v)
        [ ("throughput_req_per_s", rqs);
          ("latency_p50_ms", q 0.5); ("latency_p99_ms", q 0.99) ];
      Prelude.Texttable.add_row table
        [
          string_of_int domains;
          mode;
          Printf.sprintf "%.0f" rqs;
          Printf.sprintf "%.2f" (q 0.5);
          Printf.sprintf "%.2f" (q 0.99);
        ];
      ((domains, batch), (rqs, q 0.99))
    in
    let measured = List.map stats results in
    Prelude.Texttable.print table;
    let dec (domains, batch) =
      Serve.Client.render_decisions
        (List.assoc (domains, batch) results)
    in
    check "domain scaling: decisions invariant across 1/2/4 domains"
      (dec (1, 1) = dec (2, 1)
       && dec (2, 1) = dec (4, 1)
       && dec (1, 64) = dec (2, 64)
       && dec (2, 64) = dec (4, 64));
    let rqs k = fst (List.assoc k measured) in
    let p99 k = snd (List.assoc k measured) in
    if cores >= 4 then begin
      check "domain scaling: 4 domains >= 2x 1 domain (batched)"
        (rqs (4, 64) >= 2.0 *. rqs (1, 64));
      check "domain scaling: p99 no worse at 4 domains (1.25x tolerance)"
        (p99 (4, 64) <= 1.25 *. p99 (1, 64))
    end
    else begin
      (* with fewer cores than domains the workers time-slice, so a
         speedup claim is meaningless; guard only against pathological
         collapse (lost wakeups, a barrier bug) and report the curve *)
      Printf.printf
        "note: %d core(s) < 4 domains -- scaling assertion not \
         applicable on this box, guarding against collapse only\n%!"
        cores;
      check "domain scaling: no pathological slowdown from extra domains"
        (rqs (4, 64) >= 0.5 *. rqs (1, 64)
         && rqs (2, 64) >= 0.5 *. rqs (1, 64))
    end;
    print_newline ()
  end;
  if Sys.file_exists sock then Sys.remove sock

(* The cluster tier's cost model: the paper's local strategies live
   across a multi-node router.  Three angles: the Thm 3.7 certificate
   measured over the wire (ratio exactly 2 at exactly 2 comm rounds),
   the Thm 3.8 round budgets, and a straddle sweep -- the fraction of
   requests whose two alternatives land on different nodes swept
   0..100% to price cross-node coordination -- with the placement
   invariant (identical decision logs on 1, 2 and 3 nodes) checked on
   the way. *)
let run_cluster ~quick =
  let n = 16 and d = 4 in
  let rounds = if quick then 40 else 160 in
  (* classify resources by the 2-node ring the sweep runs on, so the
     straddle fraction is a construction parameter, not an estimate *)
  let ring2 = Cluster.Ring.create ~nodes:[ 0; 1 ] () in
  let side k =
    Array.of_list
      (List.filter
         (fun r -> Cluster.Ring.owner ring2 r = k)
         (List.init n Fun.id))
  in
  let side0 = side 0 and side1 = side 1 in
  assert (Array.length side0 >= 2 && Array.length side1 >= 2);
  let straddle_instance ~pct ~seed =
    let rng = Prelude.Rng.create ~seed in
    let pick arr = arr.(Prelude.Rng.int rng (Array.length arr)) in
    let per_round = n + (n / 8) in
    let reqs = ref [] in
    for round = 0 to rounds - 1 do
      for _ = 1 to per_round do
        let a, b =
          if Prelude.Rng.int rng 100 < pct then
            if Prelude.Rng.int rng 2 = 0 then (pick side0, pick side1)
            else (pick side1, pick side0)
          else begin
            let s = if Prelude.Rng.int rng 2 = 0 then side0 else side1 in
            let a = pick s in
            let rec other () =
              let b = pick s in
              if b = a then other () else b
            in
            (a, other ())
          end
        in
        reqs :=
          Sched.Request.make ~arrival:round ~alternatives:[ a; b ]
            ~deadline:(1 + Prelude.Rng.int rng d)
          :: !reqs
      done
    done;
    Sched.Instance.build ~n_resources:n ~d (List.rev !reqs)
  in
  let run_one ?priority ~strategy ~nodes inst =
    let session = ref None in
    let t0 = Unix.gettimeofday () in
    let o =
      Sched.Engine.run inst
        (Cluster.Session.factory ?priority
           ~on_create:(fun s -> session := Some s)
           ~strategy ~nodes ())
    in
    let dt = Unix.gettimeofday () -. t0 in
    let stats =
      match !session with
      | Some s -> Cluster.Session.stats s
      | None -> failwith "cluster factory never ran"
    in
    (o, stats, dt)
  in
  (* part 1: the straddle sweep on 2 nodes under A_local_fix *)
  let table =
    Prelude.Texttable.create
      ~title:
        (Printf.sprintf
           "B.cluster  --  straddle sweep, A_local_fix on 2 nodes (n=%d \
            d=%d %d rounds)"
           n d rounds)
      ~header:
        [ "straddle %"; "requests"; "served"; "comm max"; "msgs/round";
          "rounds/s" ]
      ()
  in
  let fix_msg_budget_ok = ref true in
  List.iter
    (fun pct ->
       let inst = straddle_instance ~pct ~seed:(900 + pct) in
       let o, s, dt =
         run_one ~strategy:Cluster.Session.Local_fix ~nodes:2 inst
       in
       let mpr =
         float_of_int s.Cluster.Session.messages
         /. float_of_int (max 1 s.Cluster.Session.scheduling_rounds)
       in
       let rps =
         if dt > 0.0 then
           float_of_int s.Cluster.Session.scheduling_rounds /. dt
         else 0.0
       in
       (* A_local_fix speaks at most twice per request, ever *)
       if s.Cluster.Session.messages > 2 * s.Cluster.Session.requests then
         fix_msg_budget_ok := false;
       if s.Cluster.Session.comm_rounds_max > 2 then
         fix_msg_budget_ok := false;
       let params =
         [ ("n", string_of_int n); ("d", string_of_int d);
           ("rounds", string_of_int rounds); ("nodes", "2");
           ("straddle", string_of_int pct) ]
       in
       record ~family:"B.cluster" ~params ~metric:"msgs_per_round" mpr;
       record ~family:"B.cluster" ~params ~metric:"rounds_per_s" rps;
       Prelude.Texttable.add_row table
         [
           string_of_int pct;
           string_of_int s.Cluster.Session.requests;
           string_of_int o.Sched.Outcome.served;
           string_of_int s.Cluster.Session.comm_rounds_max;
           Printf.sprintf "%.1f" mpr;
           Printf.sprintf "%.0f" rps;
         ])
    [ 0; 25; 50; 75; 100 ];
  Prelude.Texttable.print table;
  check "fix within budget: <= 2 msgs/request, <= 2 comm rounds"
    !fix_msg_budget_ok;
  (* part 2: placement invariance -- the router's mirror decides, so
     the node layout must never change a decision *)
  let inv_inst = straddle_instance ~pct:50 ~seed:950 in
  let logs =
    List.map
      (fun nodes ->
         let o, _, _ =
           run_one ~strategy:Cluster.Session.Local_fix ~nodes inv_inst
         in
         Report.Export.decisions_of_outcome o)
      [ 1; 2; 3 ]
  in
  check "decisions byte-identical across 1/2/3-node layouts"
    (match logs with
     | a :: rest -> List.for_all (fun b -> b = a) rest
     | [] -> false);
  (* part 3: the theorem certificates over the wire *)
  let intervals = if quick then 4 else 12 in
  let sc, priority = Adversary.Thm37.make ~d ~intervals in
  let o37, s37, _ =
    run_one ~priority ~strategy:Cluster.Session.Local_fix ~nodes:3
      sc.Adversary.Scenario.instance
  in
  let opt37 = Offline.Opt.value sc.Adversary.Scenario.instance in
  let params37 = [ ("d", string_of_int d); ("nodes", "3") ] in
  record ~family:"B.cluster" ~params:params37 ~metric:"thm37_ratio"
    (float_of_int opt37 /. float_of_int (max 1 o37.Sched.Outcome.served));
  record ~family:"B.cluster" ~params:params37 ~metric:"thm37_comm_rounds_max"
    (float_of_int s37.Cluster.Session.comm_rounds_max);
  check "thm 3.7 live on 3 nodes: ratio exactly 2 at 2 comm rounds"
    (opt37 = 2 * o37.Sched.Outcome.served
     && s37.Cluster.Session.comm_rounds_max = 2);
  let eager_inst = straddle_instance ~pct:50 ~seed:960 in
  let budgets =
    List.map
      (fun (name, compact, bound) ->
         let _, s, _ =
           run_one
             ~strategy:(Cluster.Session.Local_eager { compact })
             ~nodes:3 eager_inst
         in
         record ~family:"B.cluster"
           ~params:[ ("variant", name); ("nodes", "3") ]
           ~metric:"comm_rounds_max"
           (float_of_int s.Cluster.Session.comm_rounds_max);
         s.Cluster.Session.comm_rounds_max <= bound)
      [ ("eager", false, 9); ("eager_compact", true, 8) ]
  in
  check "thm 3.8 budgets live: eager <= 9 rounds, compact <= 8"
    (List.for_all Fun.id budgets);
  print_newline ()

(* The anytime-monitoring cost model: the whole per-round OPT prefix
   curve by the incremental tracker vs one full Hopcroft-Karp solve per
   prefix, on long workloads (the streaming regime the tracker exists
   for).  The two curves are also compared element-wise: a mismatch is a
   correctness bug, not a benchmark artifact. *)
let run_stream ~quick =
  let shapes =
    if quick then [ (8, 4, 200) ] else [ (8, 4, 200); (8, 6, 400); (16, 4, 300) ]
  in
  let table =
    Prelude.Texttable.create
      ~title:
        "B.stream  --  per-round OPT prefix curve: incremental tracker vs \
         naive per-round recompute (random load 1.1)"
      ~header:
        [ "n"; "d"; "horizon"; "requests"; "stream ms"; "naive ms";
          "speedup"; "curves agree" ]
      ()
  in
  let min_speedup = ref infinity in
  List.iter
    (fun (n, d, rounds) ->
       let rng = Prelude.Rng.create ~seed:33 in
       let inst =
         Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load:1.1 ()
       in
       let stream_curve, stream_ms =
         time_ms (fun () -> Offline.Opt_stream.prefix_curve inst)
       in
       let naive_curve, naive_ms =
         time_ms (fun () -> Offline.Opt_stream.naive_prefix_curve inst)
       in
       let speedup = naive_ms /. stream_ms in
       if speedup < !min_speedup then min_speedup := speedup;
       Prelude.Texttable.add_row table
         [
           string_of_int n;
           string_of_int d;
           string_of_int rounds;
           string_of_int (Sched.Instance.n_requests inst);
           Printf.sprintf "%.2f" stream_ms;
           Printf.sprintf "%.2f" naive_ms;
           Printf.sprintf "%.1fx" speedup;
           string_of_bool (stream_curve = naive_curve);
         ])
    shapes;
  Prelude.Texttable.print table;
  check "streaming >= 5x faster" (!min_speedup >= 5.0);
  print_newline ()

(* The job-runner cost model: the same experiment battery executed
   serially, across domains, and against a warm on-disk cache.  The
   cached pass must answer (nearly) everything without computing — the
   hit rate is asserted, the wall-clock numbers are informational. *)
let run_jobs ~quick =
  let ids = [ "T1.fix.lb"; "T1.eager.lb"; "T1.any.lb"; "T1.ub" ] in
  let families =
    List.filter (fun (id, _) -> List.mem id ids) Report.Experiments.catalog
  in
  let run ctx =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (_, f) -> ignore (f ~ctx ~quick : Report.Experiments.t))
      families;
    let elapsed = Unix.gettimeofday () -. t0 in
    (elapsed, Report.Jobs.stats ctx)
  in
  let serial_s, serial_st = run (Report.Jobs.create ~domains:1 ()) in
  let par_s, par_st = run (Report.Jobs.create ()) in
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched-bench-jobcache-%d" (Unix.getpid ()))
  in
  let cold_s, cold_st = run (Report.Jobs.create ~cache_dir ~resume:true ()) in
  let warm_s, warm_st = run (Report.Jobs.create ~cache_dir ~resume:true ()) in
  Array.iter
    (fun f -> Sys.remove (Filename.concat cache_dir f))
    (Sys.readdir cache_dir);
  Sys.rmdir cache_dir;
  let table =
    Prelude.Texttable.create
      ~title:
        (Printf.sprintf
           "B.jobs  --  battery of %d families through the job runner: \
            serial vs parallel vs on-disk cache"
           (List.length families))
      ~header:
        [ "mode"; "battery s"; "executed"; "cache hits"; "hit rate" ]
      ()
  in
  let row name s (st : Report.Jobs.stats) =
    Prelude.Texttable.add_row table
      [
        name;
        Printf.sprintf "%.2f" s;
        string_of_int st.Report.Jobs.executed;
        string_of_int st.Report.Jobs.cache_hits;
        Printf.sprintf "%.1f%%" (100.0 *. Report.Jobs.hit_rate st);
      ]
  in
  row "serial (--jobs 1)" serial_s serial_st;
  row "parallel" par_s par_st;
  row "cache cold" cold_s cold_st;
  row "cache warm" warm_s warm_st;
  Prelude.Texttable.print table;
  check "warm cache answers everything"
    (warm_st.Report.Jobs.executed = 0
     && warm_st.Report.Jobs.cache_hits = warm_st.Report.Jobs.total);
  print_newline ()

(* The zoo scoring path: one streaming pass (live engine + SLO
   accumulator + prefix optimum) versus the batch recompute from the
   recorded outcome, on every workload family.  The equality check is
   the bench-side differential for Analysis.Slo; the per-family scores
   land in the --json records so a committed baseline can watch the
   workloads themselves drift. *)
let run_zoo ~quick =
  let n, d, rounds = Report.Zoo.tier ~quick in
  let seed = Report.Zoo.seed in
  let feq a b = (Float.is_nan a && Float.is_nan b) || a = b in
  let scores_equal (a : Analysis.Slo.scores) (b : Analysis.Slo.scores) =
    a.submitted = b.submitted && a.served = b.served && a.expired = b.expired
    && a.rounds = b.rounds
    && feq a.violation_rate b.violation_rate
    && feq a.throughput b.throughput
    && feq a.antt b.antt
    && feq a.max_delay_factor b.max_delay_factor
    && a.machines_needed = b.machines_needed
  in
  let factory () =
    match Report.Registry.factory_of_name ~seed "balance" with
    | Ok f -> f
    | Error m -> failwith m
  in
  let table =
    Prelude.Texttable.create
      ~title:
        (Printf.sprintf
           "B.zoo  --  SLO scoring: one streaming pass vs batch recompute \
            (balance, n=%d d=%d rounds=%d)"
           n d rounds)
      ~header:
        [
          "workload"; "requests"; "stream ms"; "batch ms"; "viol%";
          "thr/round"; "antt"; "maxDF"; "m>="; "equal";
        ]
      ()
  in
  let all_equal = ref true in
  List.iter
    (fun (f : Workload.Zoo.family) ->
       let inst =
         f.generate ~n ~d ~rounds ~load:f.default_load ~seed
       in
       let streamed, stream_ms =
         time_ms (fun () -> Analysis.Slo.score_stream inst (factory ()))
       in
       let batch, batch_ms =
         time_ms (fun () ->
             Analysis.Slo.of_outcome (Sched.Engine.run inst (factory ())))
       in
       let s = streamed.Analysis.Slo.scores in
       let equal = scores_equal s batch in
       if not equal then all_equal := false;
       let params =
         [
           ("workload", f.key); ("n", string_of_int n);
           ("d", string_of_int d); ("rounds", string_of_int rounds);
         ]
       in
       record ~family:"B.zoo" ~params ~metric:"stream_ms" stream_ms;
       record ~family:"B.zoo" ~params ~metric:"violation_rate"
         s.violation_rate;
       record ~family:"B.zoo" ~params ~metric:"throughput" s.throughput;
       record ~family:"B.zoo" ~params ~metric:"anytime_ratio"
         streamed.anytime_ratio;
       Prelude.Texttable.add_row table
         [
           f.key;
           string_of_int (Sched.Instance.n_requests inst);
           Printf.sprintf "%.2f" stream_ms;
           Printf.sprintf "%.2f" batch_ms;
           Printf.sprintf "%.1f%%" (100.0 *. s.violation_rate);
           Printf.sprintf "%.2f" s.throughput;
           (if Float.is_nan s.antt then "-" else Printf.sprintf "%.3f" s.antt);
           (if Float.is_nan s.max_delay_factor then "-"
            else Printf.sprintf "%.3f" s.max_delay_factor);
           string_of_int s.machines_needed;
           string_of_bool equal;
         ])
    Workload.Zoo.families;
  Prelude.Texttable.print table;
  check "streaming slo == batch recompute on every zoo family" !all_equal;
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
    ("B.scale", run_scale);
    ("B.stream", run_stream);
    ("B.jobs", run_jobs);
    ("B.serve", run_serve);
    ("B.cluster", run_cluster);
    ("B.zoo", run_zoo);
  ]

let main quick only json metrics =
  Cli.with_metrics metrics @@ fun _ ->
  let ( let* ) = Result.bind in
  let* selected =
    match only with None -> Ok families | Some id -> Cli.select id families
  in
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
      ~doc:"Run the reqsched bench families (B.micro .. B.zoo)."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          (Term.term_result'
             Term.(const main $ Cli.quick $ Cli.only $ json $ Cli.metrics))))
