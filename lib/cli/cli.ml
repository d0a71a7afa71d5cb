open Cmdliner

(* a conv from a name parser and its inverse *)
let name_conv ~docv of_name to_name =
  Arg.conv ~docv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (of_name s)),
      fun ppf v -> Format.pp_print_string ppf (to_name v) )

(* ------------------------------------------------------------------ *)
(* workloads *)

let d =
  let doc = "Deadline d (each request must be served within d rounds)." in
  Arg.(value & opt int 4 & info [ "d"; "deadline" ] ~docv:"D" ~doc)

let n =
  let doc = "Number of resources." in
  Arg.(value & opt int 8 & info [ "n"; "resources" ] ~docv:"N" ~doc)

let rounds =
  let doc = "Number of arrival rounds for random workloads." in
  Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"ROUNDS" ~doc)

let load =
  let doc = "Mean arrivals per round divided by n (1.0 saturates)." in
  Arg.(value & opt float 1.1 & info [ "load" ] ~docv:"LOAD" ~doc)

let seed =
  let doc = "PRNG seed (runs are fully deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let workload_name =
  let doc =
    Printf.sprintf "Workload: one of %s."
      (String.concat ", " Report.Registry.workload_names)
  in
  Arg.(value & opt string "uniform" & info [ "w"; "workload" ] ~docv:"W" ~doc)

type workload = {
  name : string;
  n : int;
  d : int;
  rounds : int;
  load : float;
  seed : int;
}

let workload =
  let make name n d rounds load seed = { name; n; d; rounds; load; seed } in
  Term.(const make $ workload_name $ n $ d $ rounds $ load $ seed)

let instance w =
  Report.Registry.instance_of_workload ~name:w.name ~n:w.n ~d:w.d
    ~rounds:w.rounds ~load:w.load ~seed:w.seed

(* ------------------------------------------------------------------ *)
(* strategies *)

let solver =
  let doc =
    Printf.sprintf
      "Solver for the global strategies: one of %s.  $(b,kernel) (the \
       default) is the warm-start incremental round kernel, $(b,rebuild) \
       the from-scratch differential oracle.  Strategies without a solver \
       choice ignore this."
      (String.concat ", " Report.Registry.solver_names)
  in
  let name_of s =
    List.find
      (fun n -> Report.Registry.solver_of_name n = Ok s)
      Report.Registry.solver_names
  in
  Arg.(value
       & opt (name_conv ~docv:"SOLVER" Report.Registry.solver_of_name name_of)
           Strategies.Global.Kernel
       & info [ "solver" ] ~docv:"SOLVER" ~doc)

type strategy = { strategy : string; solver : Strategies.Global.solver }

let strategy =
  let doc =
    Printf.sprintf "Strategy: one of %s."
      (String.concat ", " Report.Registry.strategy_names)
  in
  let strategy_name =
    Arg.(value & opt string "balance" & info [ "s"; "strategy" ] ~docv:"S" ~doc)
  in
  let make strategy solver = { strategy; solver } in
  Term.(const make $ strategy_name $ solver)

let factory ?metrics ~seed s =
  Report.Registry.factory_of_name ~seed ?metrics ~solver:s.solver s.strategy

let score =
  let doc =
    Printf.sprintf
      "Also score on an SLO objective: %s.  $(b,slo) reports the whole \
       block (deadline-violation rate, sustained throughput, ANTT, max \
       delay factor, machines-needed lower bound)."
      (String.concat ", " Analysis.Slo.selector_names)
  in
  let c =
    name_conv ~docv:"MODE" Analysis.Slo.selector_of_name
      Analysis.Slo.selector_to_name
  in
  Arg.(value & opt (some c) None & info [ "score" ] ~docv:"MODE" ~doc)

(* ------------------------------------------------------------------ *)
(* metrics *)

type metrics = { fmt : Obs.Export.format option; out : string option }

let metrics =
  let fmt =
    let doc =
      "Record per-subsystem metrics (engine rounds, kernel search effort, \
       the streaming optimum behind SLO and anytime scores, network \
       traffic, domain utilisation) and print them after the report in \
       the given format: text, csv or json.  Metrics only observe: every \
       result, the offline optimum included, is computed the same way \
       with or without them."
    in
    let c =
      name_conv ~docv:"FMT" Obs.Export.format_of_string Obs.Export.format_name
    in
    Arg.(value & opt (some c) None & info [ "metrics" ] ~docv:"FMT" ~doc)
  in
  let out =
    let doc = "Write the $(b,--metrics) dump to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun fmt out -> { fmt; out }) $ fmt $ out)

let with_metrics { fmt; out } k =
  match fmt with
  | None -> k None
  | Some fmt ->
    let m = Obs.Metrics.create () in
    Obs.Metrics.set_ambient (Some m);
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_ambient None)
      (fun () ->
         let r = k (Some m) in
         if Result.is_ok r then begin
           Obs.Export.output ?path:out fmt (Obs.Metrics.snapshot m);
           Option.iter (Printf.printf "metrics  : wrote %s\n") out
         end;
         r)

(* ------------------------------------------------------------------ *)
(* experiment jobs *)

let jobs =
  let domains =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= Prelude.Parmap.max_domains -> Ok n
      | _ ->
        Error
          (`Msg
             (Printf.sprintf "expected a domain count in 1..%d, got %S"
                Prelude.Parmap.max_domains s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc =
    Printf.sprintf
      "Worker domains for the experiment jobs (1 = serial, at most %d; the \
       default picks a count suited to the machine).  Any value produces \
       byte-identical report output."
      Prelude.Parmap.max_domains
  in
  Arg.(value & opt (some domains) None & info [ "jobs" ] ~docv:"N" ~doc)

let catch_job_failure k =
  Printexc.record_backtrace true;
  match k () with
  | r -> r
  | exception (Obs.Instrument.Job_failed _ as e) ->
    let bt = Printexc.get_raw_backtrace () in
    Error
      (String.trim
         (Printexc.to_string e ^ "\n" ^ Printexc.raw_backtrace_to_string bt))

(* ------------------------------------------------------------------ *)
(* experiment selection *)

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Small parameters.")

let only =
  let doc =
    "Run only the ids equal to $(docv) or below it in whole \
     dot-separated segments."
  in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)

let select p entries =
  let selected id = id = p || String.starts_with ~prefix:(p ^ ".") id in
  match List.filter (fun (id, _) -> selected id) entries with
  | [] ->
    Error
      (Printf.sprintf "no id matches %S; known ids: %s" p
         (String.concat ", " (List.map fst entries)))
  | matches -> Ok matches
