(* The reqsched command line.

   Subcommands:
     run      run one strategy on a workload and print the outcome
     compare  run every strategy on one workload
     exp      run reproduction experiments by id
     table1   print the paper's Table 1 bounds for a given d
     trace    round-by-round trace of a strategy on a small workload *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments *)

let d_arg =
  let doc = "Deadline d (each request must be served within d rounds)." in
  Arg.(value & opt int 4 & info [ "d"; "deadline" ] ~docv:"D" ~doc)

let n_arg =
  let doc = "Number of resources." in
  Arg.(value & opt int 8 & info [ "n"; "resources" ] ~docv:"N" ~doc)

let rounds_arg =
  let doc = "Number of arrival rounds for random workloads." in
  Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)

let load_arg =
  let doc = "Mean arrivals per round divided by n (1.0 saturates)." in
  Arg.(value & opt float 1.1 & info [ "load" ] ~docv:"LOAD" ~doc)

let seed_arg =
  let doc = "PRNG seed (runs are fully deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let strategy_names = Report.Registry.strategy_names

let strategy_arg =
  let doc =
    Printf.sprintf "Strategy: one of %s." (String.concat ", " strategy_names)
  in
  Arg.(value & opt string "balance" & info [ "s"; "strategy" ] ~docv:"S" ~doc)

let workload_arg =
  let doc =
    "Workload: uniform, zipf, bursty, a theorem adversary (thm21, thm22, \
     thm23, thm24, thm25, thm37), or a zoo family (hotspot, diurnal, vod, \
     overload, mix)."
  in
  Arg.(value & opt string "uniform" & info [ "w"; "workload" ] ~docv:"W" ~doc)

let score_arg =
  let doc =
    Printf.sprintf
      "Also score on an SLO objective: %s.  $(b,slo) reports the whole \
       block (deadline-violation rate, sustained throughput, ANTT, max \
       delay factor, machines-needed lower bound)."
      (String.concat ", " Analysis.Slo.selector_names)
  in
  Arg.(value & opt (some string) None & info [ "score" ] ~docv:"MODE" ~doc)

let with_score score k =
  match score with
  | None -> k None
  | Some name ->
    (match Analysis.Slo.selector_of_name name with
     | Error m -> `Error (false, m)
     | Ok s -> k (Some s))

let solver_arg =
  let doc =
    Printf.sprintf
      "Solver for the global strategies: one of %s.  $(b,kernel) (the \
       default) is the warm-start incremental round kernel, $(b,rebuild) \
       the from-scratch differential oracle.  Strategies without a solver \
       choice ignore this."
      (String.concat ", " Report.Registry.solver_names)
  in
  Arg.(value & opt string "kernel" & info [ "solver" ] ~docv:"SOLVER" ~doc)

let with_solver name k =
  match Report.Registry.solver_of_name name with
  | Error m -> `Error (false, m)
  | Ok solver -> k solver

let factory_of_name ~seed ?metrics ?solver name =
  Report.Registry.factory_of_name ~seed ?metrics ?solver name

let instance_of_workload = Report.Registry.instance_of_workload

(* ------------------------------------------------------------------ *)
(* job-runner arguments (shared by exp and sweep) *)

let jobs_arg =
  let doc =
    "Worker domains for the experiment job runner (1 = serial; the \
     default picks a count suited to the machine).  Any value produces \
     byte-identical report output."
  in
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Cache job results under $(docv) (content-addressed, created on \
     demand).  Results are always written when set; pair with \
     $(b,--resume) to also read them back."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Answer jobs from the $(b,--cache-dir) cache when possible, \
     recomputing only missing or corrupt entries — a killed run picks \
     up where it left off."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let retries_arg =
  let doc = "Extra attempts per failing job before recording the failure." in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"K" ~doc)

let runner_ctx ?metrics ~jobs ~cache_dir ~resume ~retries () =
  Report.Jobs.create ?domains:jobs ?cache_dir ~resume ~retries ?metrics ()

(* Print what the runner accumulated and flush its gauges so a
   [--metrics] dump carries jobs.* alongside the live counters. *)
let finish_runner ctx =
  let failures = Report.Jobs.render_failures ctx in
  if failures <> "" then print_string failures;
  print_endline (Report.Jobs.summary ctx);
  Report.Jobs.finish ctx

(* ------------------------------------------------------------------ *)
(* metrics export (shared by the subcommands) *)

let metrics_fmt_arg =
  let doc =
    "Record per-subsystem metrics (engine rounds, kernel search effort, \
     the streaming optimum behind SLO and anytime scores, network \
     traffic, domain utilisation) and print them after the report in \
     the given format: text, csv or json.  Metrics only observe: every \
     result, the offline optimum included, is computed the same way \
     with or without them."
  in
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FMT" ~doc)

let metrics_out_arg =
  let doc = "Write the $(b,--metrics) dump to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Parse the format, install an ambient registry around [k], export on
   success.  [k] receives the registry so commands can also pass it
   explicitly where the ambient fallback does not reach. *)
let with_metrics fmt out k =
  match fmt with
  | None -> k None
  | Some name ->
    (match Obs.Export.format_of_string name with
     | Error m -> `Error (false, m)
     | Ok fmt ->
       let m = Obs.Metrics.create () in
       Obs.Metrics.set_ambient (Some m);
       Fun.protect
         ~finally:(fun () -> Obs.Metrics.set_ambient None)
         (fun () ->
            match k (Some m) with
            | `Ok () ->
              Obs.Export.output ?path:out fmt (Obs.Metrics.snapshot m);
              (match out with
               | Some path -> Printf.printf "metrics  : wrote %s\n" path
               | None -> ());
              `Ok ()
            | other -> other))

let print_outcome_summary (r : Report.Harness.run) =
  let o = r.outcome in
  Printf.printf "strategy : %s\n" o.strategy_name;
  Printf.printf "instance : %s\n"
    (Format.asprintf "%a" Sched.Instance.pp_summary o.instance);
  Printf.printf "served   : %d / %d (wasted services: %d)\n" o.served
    (Sched.Instance.n_requests o.instance)
    o.wasted;
  Printf.printf "optimum  : %d\n" r.opt;
  Printf.printf "ratio    : %.4f\n" r.ratio

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let action strategy solver workload n d rounds load seed audit csv phases
      score mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    with_solver solver @@ fun solver ->
    with_score score @@ fun score ->
    match factory_of_name ~seed ?metrics ~solver strategy with
    | Error m -> `Error (false, m)
    | Ok factory ->
      (match instance_of_workload ~name:workload ~n ~d ~rounds ~load ~seed with
       | Error m -> `Error (false, m)
       | Ok inst ->
         let r = Report.Harness.run_instance ?metrics inst factory in
         print_outcome_summary r;
         (match score with
          | None -> ()
          | Some sel ->
            let s = Analysis.Slo.of_outcome r.outcome in
            Option.iter (fun m -> Analysis.Slo.record m s) metrics;
            (match sel with
             | Analysis.Slo.All ->
               Printf.printf "%s\n"
                 (Format.asprintf "%a" Analysis.Slo.pp_scores s)
             | Analysis.Slo.One mode ->
               Printf.printf "score    : %s = %s\n"
                 (Analysis.Slo.mode_label mode)
                 (Analysis.Slo.mode_cell mode ~ratio:r.ratio s)));
         if audit then begin
           let a = Analysis.Audit.of_outcome r.outcome in
           Printf.printf "audit    : %s\n"
             (Format.asprintf "%a" Analysis.Audit.pp a)
         end;
         (match phases with
          | Some period when period >= 1 ->
            List.iter
              (fun w ->
                 Printf.printf "window   : %s\n"
                   (Format.asprintf "%a" Analysis.Ledger.pp w))
              (Analysis.Ledger.by_window r.outcome ~period);
            (match Analysis.Ledger.steady_state r.outcome ~period with
             | Some (arrived, served) ->
               Printf.printf
                 "steady   : %d arrived / %d served per window\n" arrived
                 served
             | None -> Printf.printf "steady   : no steady state\n")
          | Some _ | None -> ());
         (match csv with
          | Some path ->
            Report.Export.write_file ~path
              (Report.Export.csv_of_outcome r.outcome);
            Printf.printf "csv      : wrote %s\n" path
          | None -> ());
         `Ok ())
  in
  let audit_arg =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Also print the augmenting-path census against the optimum.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Write the per-request outcome as CSV to $(docv).")
  in
  let phases_arg =
    Arg.(value & opt (some int) None
         & info [ "phases" ] ~docv:"PERIOD"
             ~doc:"Print per-window accounting with the given period \
                   (rounds) and the steady state if one exists.")
  in
  let term =
    Term.(ret (const action $ strategy_arg $ solver_arg $ workload_arg
               $ n_arg $ d_arg $ rounds_arg $ load_arg $ seed_arg $ audit_arg
               $ csv_arg $ phases_arg $ score_arg $ metrics_fmt_arg
               $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one strategy on a workload.")
    term

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let action workload solver n d rounds load seed score mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    with_solver solver @@ fun solver ->
    with_score score @@ fun score ->
    match instance_of_workload ~name:workload ~n ~d ~rounds ~load ~seed with
    | Error m -> `Error (false, m)
    | Ok inst ->
      let opt = Offline.Opt.value inst in
      (* --score slo appends the full block, one objective just its
         column; ratio already has a column, so All skips it *)
      let score_modes =
        match score with
        | None -> []
        | Some (Analysis.Slo.One mode) -> [ mode ]
        | Some Analysis.Slo.All ->
          [
            Analysis.Slo.Violation; Analysis.Slo.Throughput; Analysis.Slo.Antt;
            Analysis.Slo.Delay; Analysis.Slo.Machines;
          ]
      in
      let table =
        Prelude.Texttable.create
          ~title:
            (Printf.sprintf "workload %s: %s; optimum %d" workload
               (Format.asprintf "%a" Sched.Instance.pp_summary inst)
               opt)
          ~header:
            ([ "strategy"; "served"; "wasted"; "ratio" ]
             @ List.map Analysis.Slo.mode_label score_modes)
          ()
      in
      List.iter
        (fun name ->
           match factory_of_name ~seed ?metrics ~solver name with
           | Error _ -> ()
           | Ok factory ->
             let o = Sched.Engine.run ?metrics inst factory in
             let ratio = Report.Harness.ratio_of ~opt ~served:o.served in
             let score_cells =
               match score_modes with
               | [] -> []
               | modes ->
                 let s = Analysis.Slo.of_outcome o in
                 List.map
                   (fun mode -> Analysis.Slo.mode_cell mode ~ratio s)
                   modes
             in
             Prelude.Texttable.add_row table
               ([
                  name;
                  string_of_int o.served;
                  string_of_int o.wasted;
                  Prelude.Texttable.cell_ratio ratio;
                ]
                @ score_cells))
        strategy_names;
      Prelude.Texttable.print table;
      `Ok ()
  in
  let term =
    Term.(ret (const action $ workload_arg $ solver_arg $ n_arg $ d_arg
               $ rounds_arg $ load_arg $ seed_arg $ score_arg
               $ metrics_fmt_arg $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every strategy on one workload.")
    term

(* ------------------------------------------------------------------ *)
(* exp *)

let exp_cmd =
  let action id quick jobs cache_dir resume retries mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    (* the experiments enumerate their cases through the job runner;
       everything else (Engine.run, Net.create, the streaming optimum)
       still picks the registry up ambiently *)
    let ctx = runner_ctx ?metrics ~jobs ~cache_dir ~resume ~retries () in
    let catalog = Report.Experiments.catalog @ Report.Zoo.catalog in
    let matches =
      if id = "all" then catalog
      else
        List.filter
          (fun (eid, _) ->
             String.length eid >= String.length id
             && String.sub eid 0 (String.length id) = id)
          catalog
    in
    if matches = [] then
      `Error
        ( false,
          Printf.sprintf "no experiment matches %S; known ids: %s" id
            (String.concat ", " (List.map fst catalog)) )
    else begin
      let failures = ref 0 in
      List.iter
        (fun (_, f) ->
           let e = f ~ctx ~quick in
           print_string (Report.Experiments.render e);
           List.iter
             (fun (_, ok) -> if not ok then incr failures)
             e.Report.Experiments.checks)
        matches;
      finish_runner ctx;
      if !failures = 0 then `Ok ()
      else `Error (false, Printf.sprintf "%d failed checks" !failures)
    end
  in
  let id_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"ID" ~doc:"Experiment id prefix, or 'all'.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small parameters.")
  in
  let term =
    Term.(ret (const action $ id_arg $ quick_arg $ jobs_arg $ cache_dir_arg
               $ resume_arg $ retries_arg $ metrics_fmt_arg
               $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run reproduction experiments (DESIGN.md §3).")
    term

(* ------------------------------------------------------------------ *)
(* table1 *)

let table1_cmd =
  let action d =
    if d < 2 then `Error (false, "d must be >= 2")
    else begin
      let table =
        Prelude.Texttable.create
          ~title:(Printf.sprintf "Paper Table 1 bounds at d = %d" d)
          ~header:[ "strategy"; "lower bound"; "upper bound" ] ()
      in
      List.iter
        (fun (name, lb, ub) ->
           let cell = function
             | Some r -> Report.Harness.rat_cell r
             | None -> "-"
           in
           Prelude.Texttable.add_row table [ name; cell lb; cell ub ])
        (Analysis.Bounds.table1 ~d);
      Prelude.Texttable.print table;
      `Ok ()
    end
  in
  let term = Term.(ret (const action $ d_arg)) in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the paper's Table 1 bounds for a given d.")
    term

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd =
  let action workload n d rounds seed score jobs cache_dir resume retries
      mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    with_score score @@ fun score ->
    (* a sweep cell is one table entry: pick a single objective *)
    let mode =
      match score with
      | None | Some (Analysis.Slo.One Analysis.Slo.Ratio) -> Analysis.Slo.Ratio
      | Some (Analysis.Slo.One m) -> m
      | Some Analysis.Slo.All -> Analysis.Slo.Ratio
    in
    match score with
    | Some Analysis.Slo.All ->
      `Error
        ( false,
          "--score slo does not fit a sweep cell; pick one objective \
           (ratio, violation, throughput, antt, delay, machines)" )
    | _ ->
    let ctx = runner_ctx ?metrics ~jobs ~cache_dir ~resume ~retries () in
    let loads = [ 0.5; 0.7; 0.9; 1.0; 1.1; 1.3; 1.5; 2.0 ] in
    let strategies =
      [ "fix"; "balance"; "edf"; "local_eager"; "greedy_2choice" ]
    in
    let insts =
      List.map
        (fun load ->
           ( load,
             instance_of_workload ~name:workload ~n ~d ~rounds ~load ~seed ))
        loads
    in
    match
      List.find_map (function _, Error m -> Some m | _ -> None) insts
    with
    | Some m -> `Error (false, m)
    | None ->
      let insts =
        List.map (fun (load, r) -> (load, Result.get_ok r)) insts
      in
      (* one job per table cell (plus the optimum per load): each is
         independently parallelised, cached and fault-isolated *)
      let shared =
        [
          ("workload", workload);
          ("n", string_of_int n);
          ("d", string_of_int d);
          ("rounds", string_of_int rounds);
          ("seed", string_of_int seed);
        ]
      in
      let batch =
        List.concat_map
          (fun (load, inst) ->
             let lp = [ ("load", string_of_float load) ] in
             Report.Jobs.job
               ~name:(Printf.sprintf "opt/load=%.2f" load)
               ~params:lp
               (fun ~attempt:_ -> Report.Jobs.Int (Offline.Opt.value inst))
             :: List.map
               (fun sname ->
                  Report.Jobs.job
                    ~name:(Printf.sprintf "%s/load=%.2f" sname load)
                    ~params:(("strategy", sname) :: lp)
                    (fun ~attempt:_ ->
                       match factory_of_name ~seed ?metrics sname with
                       | Error m -> failwith m
                       | Ok factory ->
                         let o = Sched.Engine.run ?metrics inst factory in
                         (* the cached value is the whole score record,
                            so any --score mode reads the same cache *)
                         let s = Analysis.Slo.of_outcome o in
                         Report.Jobs.List
                           [
                             Report.Jobs.Int s.Analysis.Slo.submitted;
                             Report.Jobs.Int s.served;
                             Report.Jobs.Int s.expired;
                             Report.Jobs.Int s.rounds;
                             Report.Jobs.Float s.violation_rate;
                             Report.Jobs.Float s.throughput;
                             Report.Jobs.Float s.antt;
                             Report.Jobs.Float s.max_delay_factor;
                             Report.Jobs.Int s.machines_needed;
                           ]))
               strategies)
          insts
      in
      let outcomes = Report.Jobs.map ctx ~family:"sweep" ~shared batch in
      let table =
        Prelude.Texttable.create
          ~title:
            (Printf.sprintf
               "%s vs load (workload %s, n=%d, d=%d, %d rounds)"
               (match mode with
                | Analysis.Slo.Ratio -> "competitive ratio"
                | m -> "SLO score " ^ Analysis.Slo.mode_label m)
               workload n d rounds)
          ~header:("load" :: "optimum" :: strategies)
          ()
      in
      let scores_of_cell o =
        let iv i = Report.Jobs.int_value (Report.Jobs.nth o i) in
        let fv i = Report.Jobs.float_value (Report.Jobs.nth o i) in
        {
          Analysis.Slo.submitted = iv 0;
          served = iv 1;
          expired = iv 2;
          rounds = iv 3;
          violation_rate = fv 4;
          throughput = fv 5;
          antt = fv 6;
          max_delay_factor = fv 7;
          machines_needed = iv 8;
        }
      in
      let per_load = 1 + List.length strategies in
      List.iteri
        (fun li (load, _) ->
           match List.filteri (fun i _ -> i / per_load = li) outcomes with
           | opt_o :: cell_os ->
             let opt = Report.Jobs.int_value opt_o in
             let cells =
               List.map
                 (fun o ->
                    Report.Jobs.cell o (fun _ ->
                        let s = scores_of_cell o in
                        let ratio =
                          Report.Harness.ratio_of ~opt
                            ~served:s.Analysis.Slo.served
                        in
                        match mode with
                        | Analysis.Slo.Ratio ->
                          Prelude.Texttable.cell_ratio ratio
                        | m -> Analysis.Slo.mode_cell m ~ratio s))
                 cell_os
             in
             Prelude.Texttable.add_row table
               (Printf.sprintf "%.1f" load
                :: Report.Jobs.cell opt_o (function
                  | Report.Jobs.Int v -> string_of_int v
                  | _ -> "?")
                :: cells)
           | [] -> ())
        insts;
      Prelude.Texttable.print table;
      finish_runner ctx;
      if Report.Jobs.failures ctx = [] then `Ok ()
      else `Error (false, "sweep completed with failed jobs")
  in
  let term =
    Term.(ret (const action $ workload_arg $ n_arg $ d_arg $ rounds_arg
               $ seed_arg $ score_arg $ jobs_arg $ cache_dir_arg $ resume_arg
               $ retries_arg $ metrics_fmt_arg $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Competitive ratio (or any --score objective) of representative \
          strategies across loads.")
    term

(* ------------------------------------------------------------------ *)
(* zoo *)

let zoo_cmd =
  let action quick jobs cache_dir resume retries mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    let ctx = runner_ctx ?metrics ~jobs ~cache_dir ~resume ~retries () in
    let e = Report.Zoo.summary ~ctx ~quick in
    print_string (Report.Experiments.render e);
    finish_runner ctx;
    let failed =
      List.length (List.filter (fun (_, ok) -> not ok) e.Report.Experiments.checks)
    in
    if failed = 0 then `Ok ()
    else `Error (false, Printf.sprintf "%d failed zoo checks" failed)
  in
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Small parameters (the golden-snapshot tier).")
  in
  let term =
    Term.(ret (const action $ quick_arg $ jobs_arg $ cache_dir_arg
               $ resume_arg $ retries_arg $ metrics_fmt_arg
               $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "zoo"
       ~doc:
         "Score every strategy on the workload zoo (hotspot, diurnal, vod, \
          overload, mix) with SLO objectives and anytime ratio.")
    term

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let action strategy solver workload n d rounds load seed grid mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    with_solver solver @@ fun solver ->
    match factory_of_name ~seed ?metrics ~solver strategy with
    | Error m -> `Error (false, m)
    | Ok factory ->
      (match instance_of_workload ~name:workload ~n ~d ~rounds ~load ~seed with
       | Error m -> `Error (false, m)
       | Ok inst ->
         let o = Sched.Engine.run ?metrics inst factory in
         if grid then begin
           print_string (Report.Gantt.render_with_failures o);
           print_newline ()
         end;
         let by_round = Hashtbl.create 64 in
         Array.iteri
           (fun id sv ->
              match sv with
              | None -> ()
              | Some (res, round) ->
                Hashtbl.replace by_round round
                  ((id, res)
                   :: Option.value ~default:[]
                        (Hashtbl.find_opt by_round round)))
           o.served_at;
         for round = 0 to inst.Sched.Instance.horizon - 1 do
           let arrivals = Sched.Instance.arrivals_at inst round in
           let served =
             List.sort compare
               (Option.value ~default:[] (Hashtbl.find_opt by_round round))
           in
           Printf.printf "round %3d | arrivals:%3d | served: %s\n" round
             (Array.length arrivals)
             (String.concat " "
                (List.map
                   (fun (id, res) -> Printf.sprintf "r%d@S%d" id res)
                   served))
         done;
         Printf.printf "%s\n"
           (Format.asprintf "%a" Sched.Outcome.pp_summary o);
         `Ok ())
  in
  let grid_arg =
    Arg.(value & flag
         & info [ "grid" ]
             ~doc:"Also draw the schedule as an ASCII occupancy chart.")
  in
  let term =
    Term.(ret (const action $ strategy_arg $ solver_arg $ workload_arg
               $ n_arg $ d_arg $ rounds_arg $ load_arg $ seed_arg $ grid_arg
               $ metrics_fmt_arg $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Round-by-round service trace of a strategy on a workload.")
    term

(* ------------------------------------------------------------------ *)
(* serve *)

let addr_conv ~what =
  let parse s =
    match Serve.Server.addr_of_string s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  let print ppf a =
    Format.pp_print_string ppf (Serve.Server.addr_to_string a)
  in
  Arg.conv ~docv:what (parse, print)

let tick_ms_arg =
  let doc =
    "Milliseconds per scheduling round (interval ticker).  Ignored \
     when $(b,--manual) is set."
  in
  Arg.(value & opt float 50.0 & info [ "tick-ms" ] ~docv:"MS" ~doc)

let manual_arg =
  let doc =
    "Logical time: rounds advance only on wire $(b,tick) messages \
     (deterministic replay mode).  Server and load generator must \
     agree on this flag."
  in
  Arg.(value & flag & info [ "manual" ] ~doc)

let serve_cmd =
  let action listen shards domains n d strategy solver seed tick_ms manual
      queue_cap max_batch outbox_cap read_timeout mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    with_solver solver @@ fun solver ->
    (* validate the strategy name once up front; per-shard factories
       then reseed so randomised strategies don't share one coin
       stream across domains *)
    match factory_of_name ~seed ~solver strategy with
    | Error m -> `Error (false, m)
    | Ok _ ->
      let per_shard ~shard ~metrics:_ =
        match factory_of_name ~seed:(seed + shard) ~solver strategy with
        | Ok f -> f
        | Error m -> failwith m
      in
      let cfg =
        {
          Serve.Server.addr = listen;
          n_resources = n;
          d;
          shards;
          domains;
          strategy = per_shard;
          tick = (if manual then `Manual else `Every (tick_ms /. 1000.0));
          queue_capacity = queue_cap;
          max_batch;
          outbox_capacity = outbox_cap;
          read_timeout;
          name = "reqsched";
        }
      in
      (match Serve.Server.start ?metrics cfg with
       | Error m -> `Error (false, m)
       | Ok srv ->
         let drain _ = Serve.Server.drain srv in
         Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
         Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
         Printf.printf
           "serving on %s: n=%d d=%d shards=%d domains=%d strategy=%s \
            tick=%s\n%!"
           (Serve.Server.addr_to_string listen)
           n d
           (Serve.Server.n_shards srv)
           (Serve.Server.n_domains srv)
           strategy
           (if manual then "manual" else Printf.sprintf "%.0fms" tick_ms);
         (* the signal handler only flips an atomic; poll for completion
            from the main thread so EINTR cannot wedge a join *)
         let rec await () =
           if not (Serve.Server.finished srv) then begin
             (try Unix.sleepf 0.1
              with Unix.Unix_error (Unix.EINTR, _, _) -> ());
             await ()
           end
         in
         await ();
         let snap = Serve.Server.wait srv in
         let count name =
           match List.assoc_opt name snap with
           | Some (Obs.Metrics.Counter v) -> v
           | Some _ | None -> 0
         in
         Printf.printf
           "drained: served=%d expired=%d rejected=%d client_errors=%d\n"
           (count "serve.served") (count "serve.expired")
           (count "serve.rejected.overload"
            + count "serve.rejected.draining"
            + count "serve.rejected.invalid")
           (count "serve.client_errors");
         `Ok ())
  in
  let listen_arg =
    let doc = "Listen address: tcp:HOST:PORT or unix:PATH." in
    Arg.(value
         & opt (addr_conv ~what:"ADDR") (Serve.Server.Tcp ("127.0.0.1", 7477))
         & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let shards_arg =
    let doc =
      "Scheduling shards; the resource space is split into this many \
       contiguous slices (clamped to [1, n])."
    in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let domains_arg =
    let doc =
      "Worker domains stepping the shards, each owning a contiguous \
       slice of them (clamped to [1, shards]).  0 means one domain \
       per shard.  With $(b,--manual) ticks, scheduling decisions are \
       byte-identical at any domain count."
    in
    Arg.(value & opt int 0 & info [ "domains" ] ~docv:"W" ~doc)
  in
  let queue_cap_arg =
    let doc =
      "Per-shard admission queue bound; a full queue rejects with \
       $(b,overload) instead of buffering without limit."
    in
    Arg.(value & opt int 1024 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let max_batch_arg =
    let doc =
      "Longest $(b,batch) wire line accepted; longer batches are \
       rejected as invalid."
    in
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let outbox_cap_arg =
    let doc =
      "Per-shard reply ring bound; a full ring stalls that shard with \
       backpressure (counted as serve.outbox_stalls), never drops a \
       reply."
    in
    Arg.(value & opt int 4096 & info [ "outbox-cap" ] ~docv:"N" ~doc)
  in
  let read_timeout_arg =
    let doc = "Idle-connection timeout in seconds (0 disables)." in
    Arg.(value & opt float 30.0 & info [ "read-timeout" ] ~docv:"SECS" ~doc)
  in
  let term =
    Term.(ret (const action $ listen_arg $ shards_arg $ domains_arg $ n_arg
               $ d_arg $ strategy_arg $ solver_arg $ seed_arg $ tick_ms_arg
               $ manual_arg $ queue_cap_arg $ max_batch_arg $ outbox_cap_arg
               $ read_timeout_arg $ metrics_fmt_arg $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the live scheduling server (SIGINT/SIGTERM drain \
          gracefully).")
    term

(* ------------------------------------------------------------------ *)
(* cluster *)

let cluster_kind_of_name = function
  | "local_fix" -> Ok Cluster.Session.Local_fix
  | "local_eager" -> Ok (Cluster.Session.Local_eager { compact = false })
  | "local_eager_compact" -> Ok (Cluster.Session.Local_eager { compact = true })
  | "proxy_global" | "proxy-global" -> Ok Cluster.Session.Proxy_global
  | other ->
    Error
      (Printf.sprintf
         "unknown cluster strategy %S (local_fix, local_eager, \
          local_eager_compact, proxy-global)"
         other)

let event_conv =
  let parse s =
    match String.index_opt s '@' with
    | Some i ->
      (try
         Ok
           ( int_of_string (String.sub s 0 i),
             int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
       with Failure _ ->
         Error (`Msg (Printf.sprintf "bad event %S, expected NODE@ROUND" s)))
    | None ->
      Error (`Msg (Printf.sprintf "bad event %S, expected NODE@ROUND" s))
  in
  let print ppf (node, round) = Format.fprintf ppf "%d@%d" node round in
  Arg.conv ~docv:"NODE@ROUND" (parse, print)

let cluster_cmd =
  let action nodes strategy workload n d rounds load seed kills rejoins
      fail_after capacity decisions_out listen tick_ms manual mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    match cluster_kind_of_name strategy with
    | Error m -> `Error (false, m)
    | Ok kind ->
      let stats_block (s : Cluster.Session.stats) =
        Printf.printf
          "cluster  : nodes=%d strategy=%s fail_after=%d\n"
          nodes (Cluster.Session.kind_name kind) fail_after;
        Printf.printf
          "rounds   : scheduling=%d comm_total=%d comm_max=%d\n"
          s.scheduling_rounds s.comm_rounds_total s.comm_rounds_max;
        Printf.printf
          "traffic  : msgs=%d bounced=%d dropped_dead=%d\n"
          s.messages s.bounced s.dropped_dead;
        Printf.printf
          "requests : admitted=%d straddled=%d served=%d expired=%d \
           readmitted=%d\n"
          s.requests s.straddled s.served s.expired s.readmitted;
        Printf.printf
          "failover : failovers=%d handoffs=%d handoff_slots=%d \
           serve_conflicts=%d\n"
          s.failovers s.handoffs s.handoff_slots s.serve_conflicts
      in
      (match listen with
       | Some addr ->
         if kills <> [] || rejoins <> [] then
           `Error (false, "--kill/--rejoin are for local runs, not --listen")
         else begin
           (* serve mode: one shard, the router tier fans out inside it *)
           let cfg =
             {
               Serve.Server.addr;
               n_resources = n;
               d;
               shards = 1;
               domains = 0;
               strategy =
                 (fun ~shard:_ ~metrics ->
                   Cluster.Session.factory ~metrics ?capacity ~fail_after
                     ~strategy:kind ~nodes ());
               tick = (if manual then `Manual else `Every (tick_ms /. 1000.0));
               queue_capacity = 1024;
               max_batch = 512;
               outbox_capacity = 4096;
               read_timeout = 30.0;
               name = "reqsched-cluster";
             }
           in
           match Serve.Server.start ?metrics cfg with
           | Error m -> `Error (false, m)
           | Ok srv ->
             let drain _ = Serve.Server.drain srv in
             Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
             Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
             Printf.printf
               "cluster serving on %s: n=%d d=%d nodes=%d strategy=%s \
                tick=%s\n%!"
               (Serve.Server.addr_to_string addr)
               n d nodes
               (Cluster.Session.kind_name kind)
               (if manual then "manual" else Printf.sprintf "%.0fms" tick_ms);
             let rec await () =
               if not (Serve.Server.finished srv) then begin
                 (try Unix.sleepf 0.1
                  with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                 await ()
               end
             in
             await ();
             let snap = Serve.Server.wait srv in
             let count name =
               match List.assoc_opt name snap with
               | Some (Obs.Metrics.Counter v) -> v
               | Some _ | None -> 0
             in
             Printf.printf
               "drained: served=%d expired=%d comm_rounds=%d bounced=%d\n"
               (count "cluster.served") (count "cluster.expired")
               (count "cluster.comm_rounds") (count "cluster.bounced");
             `Ok ()
         end
       | None ->
         (* deterministic local run under the engine's full validation *)
         let thm37 = workload = "thm37" in
         let instance =
           if thm37 then
             let sc, _ =
               Adversary.Thm37.make ~d ~intervals:(max 1 (rounds / max 1 d))
             in
             Ok sc.Adversary.Scenario.instance
           else instance_of_workload ~name:workload ~n ~d ~rounds ~load ~seed
         in
         (match instance with
          | Error m -> `Error (false, m)
          | Ok inst ->
            let priority =
              if thm37 then
                Some
                  (snd
                     (Adversary.Thm37.make ~d
                        ~intervals:(max 1 (rounds / max 1 d))))
              else None
            in
            let session = ref None in
            let base =
              Cluster.Session.factory ?metrics ?capacity ?priority ~fail_after
                ~on_create:(fun s -> session := Some s)
                ~strategy:kind ~nodes ()
            in
            let factory ~n ~d =
              let inner = base ~n ~d in
              {
                inner with
                Sched.Strategy.step =
                  (fun ~round ~arrivals ->
                    (match !session with
                     | Some s ->
                       List.iter
                         (fun (k, at) ->
                            if at = round then Cluster.Session.kill s k)
                         kills;
                       List.iter
                         (fun (k, at) ->
                            if at = round then Cluster.Session.rejoin s k)
                         rejoins
                     | None -> ());
                    inner.Sched.Strategy.step ~round ~arrivals);
              }
            in
            (try
               let o = Sched.Engine.run ?metrics inst factory in
               let opt = Offline.Opt.value inst in
               Printf.printf "instance : %s\n"
                 (Format.asprintf "%a" Sched.Instance.pp_summary inst);
               Printf.printf "served   : %d / %d\n" o.Sched.Outcome.served
                 (Sched.Instance.n_requests inst);
               Printf.printf "optimum  : %d\n" opt;
               if o.Sched.Outcome.served > 0 then
                 Printf.printf "ratio    : %.4f\n"
                   (float_of_int opt /. float_of_int o.Sched.Outcome.served);
               (match !session with
                | Some s -> stats_block (Cluster.Session.stats s)
                | None -> ());
               (match decisions_out with
                | None -> ()
                | Some path ->
                  let decisions = ref [] in
                  Array.iteri
                    (fun id sv ->
                       match sv with
                       | Some (res, round) ->
                         decisions := (round, id, res) :: !decisions
                       | None -> ())
                    o.Sched.Outcome.served_at;
                  let decisions = List.sort compare !decisions in
                  let oc = open_out path in
                  List.iter
                    (fun (round, id, res) ->
                       output_string oc
                         (Printf.sprintf "t%d sched@%d S%d\n" round id res))
                    decisions;
                  close_out oc;
                  Printf.printf "decisions: wrote %s (%d lines)\n" path
                    (List.length decisions));
               `Ok ()
             with Invalid_argument m -> `Error (false, m))))
  in
  let nodes_arg =
    let doc = "Shard nodes in the cluster (resources consistent-hashed)." in
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"K" ~doc)
  in
  let cluster_strategy_arg =
    let doc =
      "Cluster strategy: local_fix (Thm 3.7: 2 comm rounds, 2-competitive), \
       local_eager (Thm 3.8: 9 rounds), local_eager_compact (8 rounds at \
       mailbox capacity 2d-2), or proxy-global (router-probe baseline)."
    in
    Arg.(value & opt string "local_fix"
         & info [ "s"; "strategy" ] ~docv:"S" ~doc)
  in
  let kill_arg =
    let doc =
      "Crash node $(i,NODE) just before round $(i,ROUND) (repeatable; \
       local runs only)."
    in
    Arg.(value & opt_all event_conv [] & info [ "kill" ] ~doc)
  in
  let rejoin_arg =
    let doc =
      "Restart node $(i,NODE) just before round $(i,ROUND) (repeatable; \
       local runs only)."
    in
    Arg.(value & opt_all event_conv [] & info [ "rejoin" ] ~doc)
  in
  let fail_after_arg =
    let doc = "Consecutive missed pongs before a node is declared dead." in
    Arg.(value & opt int 2 & info [ "fail-after" ] ~docv:"K" ~doc)
  in
  let capacity_arg =
    let doc =
      "Per-resource mailbox capacity (default: the strategy's paper \
       value — d, or 2d-2 for local_eager_compact)."
    in
    Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"C" ~doc)
  in
  let decisions_arg =
    let doc =
      "Write the serve decisions (one $(b,t<round> sched@<id> S<res>) \
       line each) to $(docv) — byte-identical across runs and across \
       $(b,--nodes) layouts."
    in
    Arg.(value & opt (some string) None
         & info [ "decisions" ] ~docv:"FILE" ~doc)
  in
  let listen_arg =
    let doc =
      "Serve the cluster live on tcp:HOST:PORT or unix:PATH instead of \
       running a local workload."
    in
    Arg.(value & opt (some (addr_conv ~what:"ADDR")) None
         & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let term =
    Term.(ret (const action $ nodes_arg $ cluster_strategy_arg $ workload_arg
               $ n_arg $ d_arg $ rounds_arg $ load_arg $ seed_arg $ kill_arg
               $ rejoin_arg $ fail_after_arg $ capacity_arg $ decisions_arg
               $ listen_arg $ tick_ms_arg $ manual_arg $ metrics_fmt_arg
               $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the paper's local strategies live across a multi-node \
          router tier (consistent-hash placement, capacity-d mailboxes, \
          failure/rejoin), or serve it with --listen.")
    term

(* ------------------------------------------------------------------ *)
(* load *)

let load_cmd =
  let action connect mode workload n d rounds load seed users total tick_ms
      manual batch trace_in save_trace decisions_out mfmt mout =
    with_metrics mfmt mout @@ fun _metrics ->
    let inst =
      match trace_in with
      | Some path -> Sched.Codec.load ~path
      | None -> instance_of_workload ~name:workload ~n ~d ~rounds ~load ~seed
    in
    match inst with
    | Error m -> `Error (false, m)
    | Ok inst ->
      (match save_trace with
       | Some path ->
         Sched.Codec.save ~path inst;
         Printf.printf "trace    : wrote %s\n" path
       | None -> ());
      let result =
        match mode with
        | "open" ->
          Serve.Client.open_loop ~addr:connect ~inst
            ~tick:(if manual then `Manual else `Every (tick_ms /. 1000.0))
            ~batch ()
        | "closed" ->
          let total =
            if total > 0 then total else Sched.Instance.n_requests inst
          in
          Serve.Client.closed_loop ~addr:connect ~inst ~users ~total ~batch
            ()
        | other ->
          Error (Printf.sprintf "unknown mode %S (expected open or closed)"
                   other)
      in
      (match result with
       | Error m -> `Error (false, m)
       | Ok r ->
         let pct k =
           if r.Serve.Client.submitted = 0 then 0.0
           else 100.0 *. float_of_int k /. float_of_int r.submitted
         in
         Printf.printf "submitted : %d\n" r.Serve.Client.submitted;
         Printf.printf "scheduled : %d (%.1f%%)\n" r.scheduled
           (pct r.scheduled);
         Printf.printf "rejected  : %d (%.1f%%)\n" r.rejected
           (pct r.rejected);
         Printf.printf "expired   : %d (%.1f%%)\n" r.expired (pct r.expired);
         Printf.printf "duration  : %.3fs (%.0f req/s)\n" r.duration
           (if r.duration > 0.0 then
              float_of_int r.submitted /. r.duration
            else 0.0);
         if Array.length r.rtt_samples > 0 then begin
           let q p = 1e3 *. Prelude.Stats.quantile r.rtt_samples p in
           Printf.printf
             "latency   : p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n"
             (q 0.5) (q 0.9) (q 0.99)
             (1e3 *. Prelude.Stats.max r.rtt)
         end;
         (match decisions_out with
          | Some path ->
            let oc = open_out path in
            output_string oc (Serve.Client.render_decisions r);
            close_out oc;
            Printf.printf "decisions : wrote %s\n" path
          | None -> ());
         `Ok ())
  in
  let connect_arg =
    let doc = "Server address: tcp:HOST:PORT or unix:PATH." in
    Arg.(value
         & opt (addr_conv ~what:"ADDR") (Serve.Server.Tcp ("127.0.0.1", 7477))
         & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let mode_arg =
    let doc =
      "$(b,open): replay the workload's arrival schedule round by round \
       (lock-step when $(b,--manual)).  $(b,closed): keep $(b,--users) \
       requests in flight until $(b,--total) have resolved."
    in
    Arg.(value & opt string "open" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let users_arg =
    let doc = "Closed-loop concurrency (outstanding requests)." in
    Arg.(value & opt int 16 & info [ "users" ] ~docv:"K" ~doc)
  in
  let total_arg =
    let doc =
      "Closed-loop request budget (0 = one pass over the workload)."
    in
    Arg.(value & opt int 0 & info [ "total" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc =
      "Submission batch size: group up to $(docv) requests per wire \
       $(b,batch) line (1 = one $(b,req) line per request).  Decisions \
       are identical across batch sizes in $(b,--manual) mode."
    in
    Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let trace_arg =
    let doc =
      "Replay the exact instance from $(docv) (written by \
       $(b,--save-trace)) instead of generating a workload."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let save_trace_arg =
    let doc = "Save the generated instance to $(docv) before running." in
    Arg.(value & opt (some string) None
         & info [ "save-trace" ] ~docv:"FILE" ~doc)
  in
  let decisions_arg =
    let doc =
      "Write the per-tag decision log (sorted, byte-comparable across \
       replays) to $(docv)."
    in
    Arg.(value & opt (some string) None
         & info [ "decisions" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(ret (const action $ connect_arg $ mode_arg $ workload_arg $ n_arg
               $ d_arg $ rounds_arg $ load_arg $ seed_arg $ users_arg
               $ total_arg $ tick_ms_arg $ manual_arg $ batch_arg $ trace_arg
               $ save_trace_arg $ decisions_arg $ metrics_fmt_arg
               $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Generate load against a running reqsched server.")
    term

(* ------------------------------------------------------------------ *)
(* search *)

let search_cmd =
  let module Sx = Search.Exhaustive in
  let module Cert = Search.Certificate in
  let action strategy budget n d per_round seed evals restarts phases emit
      golden jobs cache_dir resume retries mfmt mout =
    with_metrics mfmt mout @@ fun metrics ->
    let strategies =
      if strategy = "all" then Ok Search.Game.strategies
      else
        match Search.Game.strategy_of_name strategy with
        | Ok s -> Ok [ s ]
        | Error e -> Error e
    in
    let tier =
      match budget with
      | "exhaustive" -> Ok None
      | "guided" -> Ok (Some `Guided)
      | s ->
        (match int_of_string_opt s with
         | Some b when b >= 1 -> Ok (Some (`Budget b))
         | _ ->
           Error
             (Printf.sprintf
                "bad --budget %S (expected exhaustive, guided, or a request \
                 count)" s))
    in
    match strategies, tier with
    | Error m, _ | _, Error m -> `Error (false, m)
    | Ok strategies, Ok tier ->
      let problems = ref 0 in
      let emit_cert slug cert =
        match emit with
        | None -> ()
        | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path =
            Filename.concat dir (Printf.sprintf "search-%s.cert" slug)
          in
          Cert.save ~path cert;
          Printf.printf "emit     : %s\n" path
      in
      (* parse + replay a certificate rendered inside a job; the claims
         printed above it are only trusted because this passes *)
      let recheck = function
        | "" -> "none"
        | s ->
          (match Cert.parse s with
           | Error e ->
             incr problems;
             "PARSE FAILED: " ^ e
           | Ok c ->
             (match Cert.check ?metrics c with
              | Ok () -> "ok"
              | Error e ->
                incr problems;
                "FAILED: " ^ e))
      in
      (match tier with
       | Some `Guided ->
         let d = Option.value d ~default:3 in
         let ctx = runner_ctx ?metrics ~jobs ~cache_dir ~resume ~retries () in
         Printf.printf
           "search   : tier=guided n=%d d=%d seed=%d restarts=%d evals=%d \
            phases=%d\n"
           n d seed restarts evals phases;
         List.iter
           (fun (strat : Search.Game.strategy) ->
              let cfg =
                Search.Attacker.config ~seed ~restarts ~evals ~phases ~n ~d ()
              in
              let r = Search.Attacker.run ?metrics ~ctx ~strategy:strat cfg in
              let cert = r.Search.Attacker.certificate in
              let rendered = Cert.render cert in
              Printf.printf
                "%s d=%d: guided best per-phase rate %s; certified instance \
                 opt %d / alg %d (ratio %s) instances=%d evals=%d \
                 disagreements=%d cert=%s\n"
                strat.Search.Game.name d
                (Prelude.Rat.to_string r.Search.Attacker.best_rate)
                cert.Cert.opt cert.Cert.alg
                (Prelude.Rat.to_string (Cert.ratio cert))
                r.Search.Attacker.instances r.Search.Attacker.evals
                (List.length r.Search.Attacker.disagreements)
                (recheck rendered);
              if r.Search.Attacker.disagreements <> [] then begin
                problems := !problems + List.length r.Search.Attacker.disagreements;
                List.iteri
                  (fun i c ->
                     emit_cert
                       (Printf.sprintf "%s-n%d-d%d-disagreement-%d"
                          strat.Search.Game.key n d i)
                       c)
                  r.Search.Attacker.disagreements
              end;
              emit_cert
                (Printf.sprintf "%s-n%d-d%d-guided" strat.Search.Game.key n d)
                cert)
           strategies;
         finish_runner ctx
       | None | Some (`Budget _) ->
         let budget = match tier with Some (`Budget b) -> Some b | _ -> None in
         let ds = match d with Some d -> [ d ] | None -> [ 1; 2 ] in
         if golden then print_string (Sx.golden_table ?budget ~n ~ds ())
         else begin
           let ctx =
             runner_ctx ?metrics ~jobs ~cache_dir ~resume ~retries ()
           in
           Printf.printf
             "search   : tier=exhaustive n=%d ds=%s budget=%d per-round=%d \
              strategies=%s\n"
             n
             (String.concat "," (List.map string_of_int ds))
             (Option.value budget ~default:4)
             per_round
             (String.concat ","
                (List.map (fun (s : Search.Game.strategy) -> s.Search.Game.name)
                   strategies));
           let cases =
             List.concat_map
               (fun d ->
                  List.map (fun (s : Search.Game.strategy) -> (d, s))
                    strategies)
               ds
           in
           let job_of (d, (strat : Search.Game.strategy)) =
             Report.Jobs.job
               ~name:(Printf.sprintf "%s-d%d" strat.Search.Game.key d)
               ~params:
                 [ ("strategy", strat.Search.Game.name);
                   ("n", string_of_int n); ("d", string_of_int d);
                   ("budget", string_of_int (Option.value budget ~default:4));
                   ("per_round", string_of_int per_round) ]
               (fun ~attempt:_ ->
                  let cfg = Sx.config ?budget ~per_round ~n ~d () in
                  let r = Sx.run ~strategy:strat cfg in
                  let best =
                    match r.Sx.best with
                    | Some f ->
                      Report.Jobs.List
                        [ Report.Jobs.Rat f.Sx.ratio;
                          Report.Jobs.Int f.Sx.opt;
                          Report.Jobs.Int f.Sx.alg ]
                    | None -> Report.Jobs.List []
                  in
                  Report.Jobs.List
                    [ best;
                      Report.Jobs.Str
                        (match Sx.certificate r with
                         | Some c -> Cert.render c
                         | None -> "");
                      Report.Jobs.Int r.Sx.nodes;
                      Report.Jobs.Int r.Sx.transpositions;
                      Report.Jobs.Int (List.length r.Sx.disagreements) ])
           in
           let outcomes =
             Report.Jobs.map ctx ~family:"search.exhaustive"
               (List.map job_of cases)
           in
           List.iter2
             (fun (d, (strat : Search.Game.strategy)) outcome ->
                let name = strat.Search.Game.name in
                match outcome with
                | Report.Jobs.Done
                    (Report.Jobs.List
                       [ Report.Jobs.List
                           [ Report.Jobs.Rat ratio; Report.Jobs.Int opt;
                             Report.Jobs.Int alg ];
                         Report.Jobs.Str cert; Report.Jobs.Int nodes;
                         Report.Jobs.Int transpositions;
                         Report.Jobs.Int disagreements ]) ->
                  if disagreements > 0 then
                    problems := !problems + disagreements;
                  Printf.printf
                    "%s d=%d: found ratio %s (opt %d / alg %d) nodes=%d \
                     transpositions=%d disagreements=%d cert=%s\n"
                    name d
                    (Prelude.Rat.to_string ratio)
                    opt alg nodes transpositions disagreements
                    (recheck cert);
                  let verdict = Sx.verdict ~d ~strategy_name:name ratio in
                  Printf.printf "%s d=%d: %s\n" name d verdict;
                  if String.length verdict >= 7
                  && String.sub verdict 0 7 = "EXCEEDS"
                  then incr problems;
                  (match Cert.parse cert with
                   | Ok c ->
                     emit_cert
                       (Printf.sprintf "%s-n%d-d%d" strat.Search.Game.key n d)
                       c
                   | Error _ -> ())
                | Report.Jobs.Done _ ->
                  incr problems;
                  Printf.printf "%s d=%d: malformed job result\n" name d
                | Report.Jobs.Failed f ->
                  incr problems;
                  Printf.printf "%s d=%d: FAILED: %s\n" name d
                    f.Report.Jobs.message)
             cases outcomes;
           finish_runner ctx
         end);
      if !problems = 0 then `Ok ()
      else `Error (false, Printf.sprintf "%d search problem(s)" !problems)
  in
  let strategy_arg =
    let doc =
      "Strategy under attack: fix, current, fix_balance, eager, balance, \
       or all."
    in
    Arg.(value & opt string "fix" & info [ "s"; "strategy" ] ~docv:"S" ~doc)
  in
  let budget_arg =
    let doc =
      "Search tier: $(b,exhaustive) (complete game tree, default request \
       budget 4), an integer request budget for the same tier, or \
       $(b,guided) (hill-climbing attacker for larger configurations)."
    in
    Arg.(value & opt string "exhaustive"
         & info [ "budget" ] ~docv:"TIER" ~doc)
  in
  let n_arg =
    let doc = "Number of resources (exhaustive tier supports 1..4)." in
    Arg.(value & opt int 2 & info [ "n"; "resources" ] ~docv:"N" ~doc)
  in
  let d_arg =
    let doc =
      "Deadline d.  Default: sweep d = 1 and 2 in the exhaustive tier \
       (the Table-1 rediscovery range), d = 3 in the guided tier."
    in
    Arg.(value & opt (some int) None & info [ "d"; "deadline" ] ~docv:"D" ~doc)
  in
  let per_round_arg =
    let doc = "Max requests the adversary may inject per round." in
    Arg.(value & opt int 4 & info [ "per-round" ] ~docv:"K" ~doc)
  in
  let evals_arg =
    let doc = "Guided tier: genome evaluations per restart." in
    Arg.(value & opt int 60 & info [ "evals" ] ~docv:"E" ~doc)
  in
  let restarts_arg =
    let doc = "Guided tier: independent hill-climb restarts (one job each)." in
    Arg.(value & opt int 8 & info [ "restarts" ] ~docv:"R" ~doc)
  in
  let phases_arg =
    let doc =
      "Guided tier: phase repetitions P; genomes are scored by the exact \
       per-phase rate between P and 2P repetitions."
    in
    Arg.(value & opt int 2 & info [ "phases" ] ~docv:"P" ~doc)
  in
  let emit_arg =
    let doc =
      "Write every found worst case as a committable certificate \
       ($(b,search-*.cert), rsp/1 instance embedded) under $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "emit" ] ~docv:"DIR" ~doc)
  in
  let golden_arg =
    let doc =
      "Print the exhaustive-tier snapshot table \
       (test/golden_search_quick.txt) instead of the per-strategy lines."
    in
    Arg.(value & flag & info [ "golden" ] ~doc)
  in
  let term =
    Term.(ret (const action $ strategy_arg $ budget_arg $ n_arg $ d_arg
               $ per_round_arg $ seed_arg $ evals_arg $ restarts_arg
               $ phases_arg $ emit_arg $ golden_arg $ jobs_arg
               $ cache_dir_arg $ resume_arg $ retries_arg $ metrics_fmt_arg
               $ metrics_out_arg))
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Search for worst-case instances against the deployed strategies \
          (exhaustive game tree + guided attacker / differential fuzzer).")
    term

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "Competitive online request scheduling with deadlines and two choices \
     (reproduction of Berenbrink, Riedel, Scheideler; SPAA 1999)."
  in
  let info = Cmd.info "reqsched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; compare_cmd; exp_cmd; table1_cmd; trace_cmd; sweep_cmd;
            zoo_cmd; search_cmd; serve_cmd; cluster_cmd; load_cmd;
          ]))
