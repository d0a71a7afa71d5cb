(* The reqsched command line.

   Subcommands:
     run      run one strategy on a workload and print the outcome
     compare  run every strategy on one workload
     exp      run reproduction experiments by id
     table1   print the paper's Table 1 bounds for a given d
     sweep    score representative strategies across loads
     trace    round-by-round trace of a strategy on a small workload
     search   search for worst-case instances
     serve    run the live scheduling server
     cluster  run (or serve) the local strategies across a node tier
     load     generate load against a running server *)

open Cmdliner

let ( let* ) = Result.bind

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
  let action w s audit csv phases score metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    let* factory = Cli.factory ?metrics ~seed:w.Cli.seed s in
    let* inst = Cli.instance w in
    let r = Report.Harness.run_instance ?metrics inst factory in
    print_outcome_summary r;
    (match score with
     | None -> ()
     | Some sel ->
       let s = r.scores in
       Option.iter (fun m -> Analysis.Slo.record m s) metrics;
       (match sel with
        | Analysis.Slo.All ->
          Printf.printf "%s\n" (Format.asprintf "%a" Analysis.Slo.pp_scores s)
        | Analysis.Slo.One mode ->
          Printf.printf "score    : %s = %s\n"
            (Analysis.Slo.mode_label mode)
            (Analysis.Slo.mode_cell mode ~ratio:r.ratio s)));
    if audit then begin
      let a = Analysis.Audit.of_outcome r.outcome in
      Printf.printf "audit    : %s\n" (Format.asprintf "%a" Analysis.Audit.pp a)
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
          Printf.printf "steady   : %d arrived / %d served per window\n"
            arrived served
        | None -> Printf.printf "steady   : no steady state\n")
     | Some _ | None -> ());
    Option.iter
      (fun path ->
         Report.Export.write_file ~path (Report.Export.csv_of_outcome r.outcome);
         Printf.printf "csv      : wrote %s\n" path)
      csv;
    Ok ()
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
  Cmd.v
    (Cmd.info "run" ~doc:"Run one strategy on a workload.")
    (Cli.exits
       Term.(const action $ Cli.workload $ Cli.strategy $ audit_arg $ csv_arg
             $ phases_arg $ Cli.score $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let action w solver score metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    let* inst = Cli.instance w in
    let curve = Report.Harness.optimum ?metrics inst in
    let opt = Offline.Opt.final curve in
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
          (Printf.sprintf "workload %s: %s; optimum %d" w.Cli.name
             (Format.asprintf "%a" Sched.Instance.pp_summary inst)
             opt)
        ~header:
          ([ "strategy"; "served"; "wasted"; "ratio" ]
           @ List.map Analysis.Slo.mode_label score_modes)
        ()
    in
    List.iter
      (fun strategy ->
         match Cli.factory ?metrics ~seed:w.seed { Cli.strategy; solver } with
         | Error _ -> ()
         | Ok factory ->
           let r = Report.Harness.score ?metrics ~curve inst factory in
           let o = r.outcome and ratio = r.ratio in
           let score_cells =
             List.map
               (fun mode -> Analysis.Slo.mode_cell mode ~ratio r.scores)
               score_modes
           in
           Prelude.Texttable.add_row table
             ([
                strategy;
                string_of_int o.served;
                string_of_int o.wasted;
                Prelude.Texttable.cell_ratio ratio;
              ]
              @ score_cells))
      Report.Registry.strategy_names;
    Prelude.Texttable.print table;
    Ok ()
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every strategy on one workload.")
    (Cli.exits
       Term.(const action $ Cli.workload $ Cli.solver $ Cli.score
             $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* exp *)

let exp_cmd =
  let action id quick domains csv metrics =
    Cli.with_metrics metrics @@ fun _ ->
    let catalog = Report.Experiments.catalog @ Report.Zoo.catalog in
    let* selected = if id = "all" then Ok catalog else Cli.select id catalog in
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      csv;
    Cli.run @@ fun () ->
    let failures =
      List.fold_left
        (fun failures (_, f) ->
           let e = f ?domains ~quick () in
           print_string (Report.Experiments.render e);
           Option.iter
             (fun dir ->
                Report.Export.write_file
                  ~path:(Filename.concat dir (e.Report.Experiments.id ^ ".csv"))
                  (Report.Export.csv_of_table e.table))
             csv;
           failures
           + List.length (List.filter (fun (_, ok) -> not ok) e.checks))
        0 selected
    in
    if failures = 0 then Ok ()
    else Error (Printf.sprintf "%d failed checks" failures)
  in
  let id_arg =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"ID"
             ~doc:"Experiment id, or an id prefix of whole dot-separated \
                   segments ($(b,T1) selects every T1.* id), or 'all'.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR"
             ~doc:"Also write each experiment table as $(docv)/<id>.csv.")
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run reproduction experiments (DESIGN.md §3).")
    (Term.term_result'
       Term.(const action $ id_arg $ Cli.quick $ Cli.jobs $ csv_arg
             $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* table1 *)

let table1_cmd =
  let action d =
    if d < 2 then Error "d must be >= 2"
    else begin
      let table =
        Prelude.Texttable.create
          ~title:(Printf.sprintf "Paper Table 1 bounds at d = %d" d)
          ~header:[ "strategy"; "lower bound"; "upper bound" ] ()
      in
      let cell = function Some r -> Report.Harness.rat_cell r | None -> "-" in
      List.iter
        (fun (name, lb, ub) ->
           Prelude.Texttable.add_row table [ name; cell lb; cell ub ])
        (Analysis.Bounds.table1 ~d);
      Prelude.Texttable.print table;
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the paper's Table 1 bounds for a given d.")
    (Cli.exits Term.(const action $ Cli.d))

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd =
  let action w score domains metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    (* a sweep cell is one table entry: pick a single objective *)
    let* mode =
      match score with
      | None -> Ok Analysis.Slo.Ratio
      | Some (Analysis.Slo.One m) -> Ok m
      | Some Analysis.Slo.All ->
        Error
          "--score slo does not fit a sweep cell; pick one objective \
           (ratio, violation, throughput, antt, delay, machines)"
    in
    let loads = [ 0.5; 0.7; 0.9; 1.0; 1.1; 1.3; 1.5; 2.0 ] in
    let strategies =
      [ "fix"; "balance"; "edf"; "local_eager"; "greedy_2choice" ]
    in
    let* insts =
      List.fold_right
        (fun load acc ->
           let* inst = Cli.instance { w with Cli.load } in
           let* acc = acc in
           Ok ((load, inst) :: acc))
        loads (Ok [])
    in
    (* one job per row: the load's optimum, then every strategy's run
       scored against it *)
    Cli.run @@ fun () ->
    let rows =
      Obs.Instrument.jobs ?domains ~family:"sweep"
        (List.map
           (fun (load, inst) ->
              ( Printf.sprintf "load=%.2f" load,
                fun () ->
                  let curve = Report.Harness.optimum ?metrics inst in
                  List.map
                    (fun sname ->
                       match
                         Report.Registry.factory_of_name ~seed:w.seed ?metrics
                           sname
                       with
                       | Error m -> failwith m
                       | Ok factory ->
                         Report.Harness.score ?metrics ~curve inst factory)
                    strategies ))
           insts)
    in
    let table =
      Prelude.Texttable.create
        ~title:
          (Printf.sprintf "%s vs load (workload %s, n=%d, d=%d, %d rounds)"
             (match mode with
              | Analysis.Slo.Ratio -> "competitive ratio"
              | m -> "SLO score " ^ Analysis.Slo.mode_label m)
             w.name w.n w.d w.rounds)
        ~header:("load" :: "optimum" :: strategies)
        ()
    in
    List.iter2
      (fun (load, _) (runs : Report.Harness.run list) ->
         let cells =
           List.map
             (fun (r : Report.Harness.run) ->
                match mode with
                | Analysis.Slo.Ratio -> Prelude.Texttable.cell_ratio r.ratio
                | m -> Analysis.Slo.mode_cell m ~ratio:r.ratio r.scores)
             runs
         in
         let opt = (List.hd runs).opt in
         Prelude.Texttable.add_row table
           (Printf.sprintf "%.1f" load :: string_of_int opt :: cells))
      insts rows;
    Prelude.Texttable.print table;
    Ok ()
  in
  (* the workload group without --load: the sweep sets it per row *)
  let workload =
    Term.(const (fun name n d rounds seed ->
              { Cli.name; n; d; rounds; load = 0.0; seed })
          $ Cli.workload_name $ Cli.n $ Cli.d $ Cli.rounds $ Cli.seed)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Competitive ratio (or any --score objective) of representative \
          strategies across loads.")
    (Term.term_result'
       Term.(const action $ workload $ Cli.score $ Cli.jobs $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let action w s grid metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    let* factory = Cli.factory ?metrics ~seed:w.Cli.seed s in
    let* inst = Cli.instance w in
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
              :: Option.value ~default:[] (Hashtbl.find_opt by_round round)))
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
           (List.map (fun (id, res) -> Printf.sprintf "r%d@S%d" id res) served))
    done;
    Printf.printf "%s\n" (Format.asprintf "%a" Sched.Outcome.pp_summary o);
    Ok ()
  in
  let grid_arg =
    Arg.(value & flag
         & info [ "grid" ]
             ~doc:"Also draw the schedule as an ASCII occupancy chart.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Round-by-round service trace of a strategy on a workload.")
    (Cli.exits
       Term.(const action $ Cli.workload $ Cli.strategy $ grid_arg
             $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* live serving: shared by serve, cluster --listen and load *)

let addr_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Serve.Server.addr_of_string s) in
  let print ppf a = Format.pp_print_string ppf (Serve.Server.addr_to_string a) in
  Arg.conv ~docv:"ADDR" (parse, print)

type tick = { tick_ms : float; manual : bool }

let tick =
  let tick_ms =
    let doc =
      "Milliseconds per scheduling round (interval ticker).  Ignored \
       when $(b,--manual) is set."
    in
    Arg.(value & opt float 50.0 & info [ "tick-ms" ] ~docv:"MS" ~doc)
  in
  let manual =
    let doc =
      "Logical time: rounds advance only on wire $(b,tick) messages \
       (deterministic replay mode).  Server and load generator must \
       agree on this flag."
    in
    Arg.(value & flag & info [ "manual" ] ~doc)
  in
  Term.(const (fun tick_ms manual -> { tick_ms; manual }) $ tick_ms $ manual)

let tick_mode t = if t.manual then `Manual else `Every (t.tick_ms /. 1000.0)

let tick_label t =
  if t.manual then "manual" else Printf.sprintf "%.0fms" t.tick_ms

(* Start the server, print [banner], drain on SIGINT/SIGTERM, and return
   a lookup of the final counters.  The signal handler only flips an
   atomic; the main thread polls for completion so EINTR cannot wedge a
   join. *)
let serve_until_drained ?metrics cfg ~banner =
  let* srv = Serve.Server.start ?metrics cfg in
  let drain _ = Serve.Server.drain srv in
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Printf.printf "%s\n%!" (banner srv);
  while not (Serve.Server.finished srv) do
    try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let snap = Serve.Server.wait srv in
  Ok
    (fun name ->
       match List.assoc_opt name snap with
       | Some (Obs.Metrics.Counter v) -> v
       | Some _ | None -> 0)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let action listen shards domains n d s seed tick queue_cap max_batch
      outbox_cap read_timeout metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    (* validate the strategy name once up front; per-shard factories
       then reseed so randomised strategies don't share one coin
       stream across domains *)
    let* _ = Cli.factory ~seed s in
    let per_shard ~shard ~metrics:_ =
      Result.get_ok (Cli.factory ~seed:(seed + shard) s)
    in
    let cfg =
      {
        Serve.Server.addr = listen;
        n_resources = n;
        d;
        shards;
        domains;
        strategy = per_shard;
        tick = tick_mode tick;
        queue_capacity = queue_cap;
        max_batch;
        outbox_capacity = outbox_cap;
        read_timeout;
        name = "reqsched";
      }
    in
    let* count =
      serve_until_drained ?metrics cfg ~banner:(fun srv ->
          Printf.sprintf
            "serving on %s: n=%d d=%d shards=%d domains=%d strategy=%s tick=%s"
            (Serve.Server.addr_to_string listen)
            n d
            (Serve.Server.n_shards srv)
            (Serve.Server.n_domains srv)
            s.Cli.strategy (tick_label tick))
    in
    Printf.printf
      "drained: served=%d expired=%d rejected=%d client_errors=%d\n"
      (count "serve.served") (count "serve.expired")
      (count "serve.rejected.overload"
       + count "serve.rejected.draining"
       + count "serve.rejected.invalid")
      (count "serve.client_errors");
    Ok ()
  in
  let listen_arg =
    let doc = "Listen address: tcp:HOST:PORT or unix:PATH." in
    Arg.(value & opt addr_conv (Serve.Server.Tcp ("127.0.0.1", 7477))
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
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the live scheduling server (SIGINT/SIGTERM drain \
          gracefully).")
    (Cli.exits
       Term.(const action $ listen_arg $ shards_arg $ domains_arg $ Cli.n
             $ Cli.d $ Cli.strategy $ Cli.seed $ tick $ queue_cap_arg
             $ max_batch_arg $ outbox_cap_arg $ read_timeout_arg
             $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* cluster *)

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
  let action nodes kind w kills rejoins fail_after capacity decisions_out
      listen tick metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    let { Cli.n; d; rounds; _ } = w in
    match listen with
    | Some addr ->
      if kills <> [] || rejoins <> [] || decisions_out <> None then
        Error "--kill/--rejoin/--decisions are for local runs, not --listen"
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
            tick = tick_mode tick;
            queue_capacity = 1024;
            max_batch = 512;
            outbox_capacity = 4096;
            read_timeout = 30.0;
            name = "reqsched-cluster";
          }
        in
        let* count =
          serve_until_drained ?metrics cfg ~banner:(fun _ ->
              Printf.sprintf
                "cluster serving on %s: n=%d d=%d nodes=%d strategy=%s tick=%s"
                (Serve.Server.addr_to_string addr)
                n d nodes
                (Cluster.Session.kind_name kind)
                (tick_label tick))
        in
        Printf.printf
          "drained: served=%d expired=%d comm_rounds=%d bounced=%d\n"
          (count "cluster.served") (count "cluster.expired")
          (count "cluster.comm_rounds") (count "cluster.bounced");
        Ok ()
      end
    | None ->
      (* deterministic local run under the engine's full validation *)
      let* inst, priority =
        if w.name = "thm37" then
          let intervals = max 1 (rounds / max 1 d) in
          match Adversary.Thm37.make ~d ~intervals with
          | sc, priority -> Ok (sc.Adversary.Scenario.instance, Some priority)
          | exception Invalid_argument m -> Error m
        else Result.map (fun inst -> (inst, None)) (Cli.instance w)
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
               Option.iter
                 (fun s ->
                    List.iter
                      (fun (k, at) -> if at = round then Cluster.Session.kill s k)
                      kills;
                    List.iter
                      (fun (k, at) ->
                         if at = round then Cluster.Session.rejoin s k)
                      rejoins)
                 !session;
               inner.Sched.Strategy.step ~round ~arrivals);
        }
      in
      (try
         let r = Report.Harness.run_instance ?metrics inst factory in
         let o = r.outcome in
         Printf.printf "instance : %s\n"
           (Format.asprintf "%a" Sched.Instance.pp_summary inst);
         Printf.printf "served   : %d / %d\n" o.Sched.Outcome.served
           (Sched.Instance.n_requests inst);
         Printf.printf "optimum  : %d\n" r.opt;
         Printf.printf "ratio    : %.4f\n" r.ratio;
         Option.iter
           (fun s ->
              let s = Cluster.Session.stats s in
              Printf.printf "cluster  : nodes=%d strategy=%s fail_after=%d\n"
                nodes (Cluster.Session.kind_name kind) fail_after;
              Printf.printf
                "rounds   : scheduling=%d comm_total=%d comm_max=%d\n"
                s.scheduling_rounds s.comm_rounds_total s.comm_rounds_max;
              Printf.printf "traffic  : msgs=%d bounced=%d dropped_dead=%d\n"
                s.messages s.bounced s.dropped_dead;
              Printf.printf
                "requests : admitted=%d straddled=%d served=%d expired=%d \
                 readmitted=%d\n"
                s.requests s.straddled s.served s.expired s.readmitted;
              Printf.printf
                "failover : failovers=%d handoffs=%d handoff_slots=%d \
                 serve_conflicts=%d\n"
                s.failovers s.handoffs s.handoff_slots s.serve_conflicts)
           !session;
         Option.iter
           (fun path ->
              Report.Export.write_file ~path (Report.Export.decisions_of_outcome o);
              Printf.printf "decisions: wrote %s (%d lines)\n" path
                o.Sched.Outcome.served)
           decisions_out;
         Ok ()
       with Invalid_argument m -> Error m)
  in
  let nodes_arg =
    let doc = "Shard nodes in the cluster (resources consistent-hashed)." in
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"K" ~doc)
  in
  let kind_arg =
    let doc =
      Printf.sprintf "Cluster strategy: one of %s."
        (String.concat ", "
           (List.map
              (fun (k, what) ->
                 Printf.sprintf "%s (%s)" (Cluster.Session.kind_name k) what)
              Cluster.Session.kinds))
    in
    let kind_conv =
      Arg.conv ~docv:"S"
        ( (fun s ->
            Result.map_error (fun m -> `Msg m) (Cluster.Session.kind_of_name s)),
          fun ppf k -> Format.pp_print_string ppf (Cluster.Session.kind_name k)
        )
    in
    Arg.(value & opt kind_conv Cluster.Session.Local_fix
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
       $(b,--nodes) layouts.  Local runs only."
    in
    Arg.(value & opt (some string) None
         & info [ "decisions" ] ~docv:"FILE" ~doc)
  in
  let listen_arg =
    let doc =
      "Serve the cluster live on tcp:HOST:PORT or unix:PATH instead of \
       running a local workload."
    in
    Arg.(value & opt (some addr_conv) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the paper's local strategies live across a multi-node \
          router tier (consistent-hash placement, capacity-d mailboxes, \
          failure/rejoin), or serve it with --listen.")
    (Cli.exits
       Term.(const action $ nodes_arg $ kind_arg $ Cli.workload $ kill_arg
             $ rejoin_arg $ fail_after_arg $ capacity_arg $ decisions_arg
             $ listen_arg $ tick $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* load *)

let load_cmd =
  let action connect mode w users total tick batch trace_in save_trace
      decisions_out metrics =
    Cli.with_metrics metrics @@ fun _metrics ->
    let* inst =
      match trace_in with
      | Some path -> Sched.Codec.load ~path
      | None -> Cli.instance w
    in
    Option.iter
      (fun path ->
         Sched.Codec.save ~path inst;
         Printf.printf "trace    : wrote %s\n" path)
      save_trace;
    let* r =
      match mode with
      | "open" ->
        Serve.Client.open_loop ~addr:connect ~inst ~tick:(tick_mode tick)
          ~batch ()
      | "closed" ->
        let total =
          if total > 0 then total else Sched.Instance.n_requests inst
        in
        Serve.Client.closed_loop ~addr:connect ~inst ~users ~total ~batch ()
      | other ->
        Error (Printf.sprintf "unknown mode %S (expected open or closed)" other)
    in
    let pct k =
      if r.Serve.Client.submitted = 0 then 0.0
      else 100.0 *. float_of_int k /. float_of_int r.submitted
    in
    Printf.printf "submitted : %d\n" r.Serve.Client.submitted;
    Printf.printf "scheduled : %d (%.1f%%)\n" r.scheduled (pct r.scheduled);
    Printf.printf "rejected  : %d (%.1f%%)\n" r.rejected (pct r.rejected);
    Printf.printf "expired   : %d (%.1f%%)\n" r.expired (pct r.expired);
    Printf.printf "duration  : %.3fs (%.0f req/s)\n" r.duration
      (if r.duration > 0.0 then float_of_int r.submitted /. r.duration
       else 0.0);
    if Array.length r.rtt_samples > 0 then begin
      let q p = 1e3 *. Prelude.Stats.quantile r.rtt_samples p in
      Printf.printf
        "latency   : p50 %.2fms  p90 %.2fms  p99 %.2fms  max %.2fms\n"
        (q 0.5) (q 0.9) (q 0.99)
        (1e3 *. Prelude.Stats.max r.rtt)
    end;
    Option.iter
      (fun path ->
         let oc = open_out path in
         output_string oc (Serve.Client.render_decisions r);
         close_out oc;
         Printf.printf "decisions : wrote %s\n" path)
      decisions_out;
    Ok ()
  in
  let connect_arg =
    let doc = "Server address: tcp:HOST:PORT or unix:PATH." in
    Arg.(value & opt addr_conv (Serve.Server.Tcp ("127.0.0.1", 7477))
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
    let doc = "Closed-loop request budget (0 = one pass over the workload)." in
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
  Cmd.v
    (Cmd.info "load" ~doc:"Generate load against a running reqsched server.")
    (Cli.exits
       Term.(const action $ connect_arg $ mode_arg $ Cli.workload $ users_arg
             $ total_arg $ tick $ batch_arg $ trace_arg $ save_trace_arg
             $ decisions_arg $ Cli.metrics))

(* ------------------------------------------------------------------ *)
(* search *)

let search_cmd =
  let module Sx = Search.Exhaustive in
  let module Cert = Search.Certificate in
  let action strategy budget n d per_round seed evals restarts phases emit
      golden domains metrics =
    Cli.with_metrics metrics @@ fun metrics ->
    let* strategies =
      if strategy = "all" then Ok Search.Game.strategies
      else Result.map (fun s -> [ s ]) (Search.Game.strategy_of_name strategy)
    in
    let* tier =
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
    (* an exhaustive size out of range is a usage error, refused before
       any job runs *)
    let* () =
      match tier with
      | Some `Guided -> Ok ()
      | None | Some (`Budget _) ->
        let budget = match tier with Some (`Budget b) -> Some b | _ -> None in
        List.fold_left
          (fun acc d ->
             Result.bind acc (fun () ->
                 (* the golden table runs at the default per-round *)
                 let per_round = if golden then None else Some per_round in
                 Sx.check (Sx.config ?budget ?per_round ~n ~d ())))
          (Ok ())
          (match d with Some d -> [ d ] | None -> [ 1; 2 ])
    in
    let problems = ref 0 in
    let emit_cert slug cert =
      Option.iter
        (fun dir ->
           if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
           let path =
             Filename.concat dir (Printf.sprintf "search-%s.cert" slug)
           in
           Cert.save ~path cert;
           Printf.printf "emit     : %s\n" path)
        emit
    in
    (* replay a certificate found inside a job; the claims printed
       above it are only trusted because this passes *)
    let recheck = function
      | None -> "none"
      | Some c ->
        (match Cert.check ?metrics c with
         | Ok () -> "ok"
         | Error e ->
           incr problems;
           "FAILED: " ^ e)
    in
    Cli.run @@ fun () ->
    (match tier with
     | Some `Guided ->
       let d = Option.value d ~default:3 in
       Printf.printf
         "search   : tier=guided n=%d d=%d seed=%d restarts=%d evals=%d \
          phases=%d\n"
         n d seed restarts evals phases;
       List.iter
         (fun (strat : Search.Game.strategy) ->
            let cfg =
              Search.Attacker.config ~seed ~restarts ~evals ~phases ~n ~d ()
            in
            let r = Search.Attacker.run ?metrics ?domains ~strategy:strat cfg in
            let cert = r.Search.Attacker.certificate in
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
              (recheck (Some cert));
            if r.Search.Attacker.disagreements <> [] then begin
              problems :=
                !problems + List.length r.Search.Attacker.disagreements;
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
         strategies
     | None | Some (`Budget _) ->
       let budget = match tier with Some (`Budget b) -> Some b | _ -> None in
       let ds = match d with Some d -> [ d ] | None -> [ 1; 2 ] in
       if golden then print_string (Sx.golden_table ?budget ~n ~ds ())
       else begin
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
                List.map (fun (s : Search.Game.strategy) -> (d, s)) strategies)
             ds
         in
         let results =
           Obs.Instrument.jobs ?domains ~family:"search.exhaustive"
             (List.map
                (fun (d, (strat : Search.Game.strategy)) ->
                   ( Printf.sprintf "%s-d%d" strat.Search.Game.key d,
                     fun () ->
                       Sx.run ~strategy:strat
                         (Sx.config ?budget ~per_round ~n ~d ()) ))
                cases)
         in
         List.iter2
           (fun (d, (strat : Search.Game.strategy)) (r : Sx.result) ->
              let name = strat.Search.Game.name in
              match r.best with
              | None ->
                incr problems;
                Printf.printf "%s d=%d: empty search tree\n" name d
              | Some f ->
                let disagreements = List.length r.disagreements in
                if disagreements > 0 then
                  problems := !problems + disagreements;
                let cert = Sx.certificate r in
                Printf.printf
                  "%s d=%d: found ratio %s (opt %d / alg %d) nodes=%d \
                   transpositions=%d disagreements=%d cert=%s\n"
                  name d
                  (Prelude.Rat.to_string f.ratio)
                  f.opt f.alg r.nodes r.transpositions disagreements
                  (recheck cert);
                let verdict = Sx.verdict ~d ~strategy_name:name f.ratio in
                Printf.printf "%s d=%d: %s\n" name d verdict;
                if String.starts_with ~prefix:"EXCEEDS" verdict then
                  incr problems;
                Option.iter
                  (emit_cert
                     (Printf.sprintf "%s-n%d-d%d" strat.Search.Game.key n d))
                  cert)
           cases results
       end);
    if !problems = 0 then Ok ()
    else Error (Printf.sprintf "%d search problem(s)" !problems)
  in
  let strategy_arg =
    let doc =
      Printf.sprintf "Strategy under attack: one of %s, or all."
        (String.concat ", "
           (List.map (fun (s : Search.Game.strategy) -> s.key)
              Search.Game.strategies))
    in
    Arg.(value & opt string "fix" & info [ "s"; "strategy" ] ~docv:"S" ~doc)
  in
  let budget_arg =
    let doc =
      "Search tier: $(b,exhaustive) (complete game tree, default request \
       budget 4), an integer request budget for the same tier, or \
       $(b,guided) (hill-climbing attacker for larger configurations)."
    in
    Arg.(value & opt string "exhaustive" & info [ "budget" ] ~docv:"TIER" ~doc)
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
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Search for worst-case instances against the deployed strategies \
          (exhaustive game tree + guided attacker / differential fuzzer).")
    (Term.term_result'
       Term.(const action $ strategy_arg $ budget_arg $ n_arg $ d_arg
             $ per_round_arg $ Cli.seed $ evals_arg $ restarts_arg
             $ phases_arg $ emit_arg $ golden_arg $ Cli.jobs $ Cli.metrics))

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "Competitive online request scheduling with deadlines and two choices \
     (reproduction of Berenbrink, Riedel, Scheideler; SPAA 1999)."
  in
  let info = Cmd.info "reqsched" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd; compare_cmd; exp_cmd; table1_cmd; trace_cmd; sweep_cmd;
            search_cmd; serve_cmd; cluster_cmd; load_cmd;
          ]))
