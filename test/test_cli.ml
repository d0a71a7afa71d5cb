(* The shared command-line terms of lib/cli, driven through cmdliner's
   own evaluator exactly as reqsched and the bench parse argv. *)

open Cmdliner

let eval term args =
  let err = Format.formatter_of_buffer (Buffer.create 256) in
  Cmd.eval_value ~err ~help:err
    ~argv:(Array.of_list ("prog" :: args))
    (Cmd.v (Cmd.info "prog") term)

let parsed term args =
  match eval term args with Ok (`Ok v) -> Some v | _ -> None

(* Regression: the bench's old hand-rolled parser returned None for a
   value flag in final position, silently running everything when
   `--only` was typed without an id. *)
let test_trailing_value_is_error () =
  Alcotest.(check (option (option string)))
    "value parsed" (Some (Some "T1")) (parsed Cli.only [ "--only"; "T1" ]);
  Alcotest.(check (option (option string)))
    "absent is None" (Some None) (parsed Cli.only []);
  match eval Cli.only [ "--only" ] with
  | Error `Parse -> ()
  | _ -> Alcotest.fail "a trailing --only must be a usage error"

let contains ~needle s =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

let catalog = Report.Experiments.catalog @ Report.Zoo.catalog

let selected p entries =
  match Cli.select p entries with
  | Ok l -> List.map fst l
  | Error m -> Alcotest.fail m

let test_select_whole_segments () =
  Alcotest.(check (list string))
    "T1.fix is one experiment" [ "T1.fix.lb" ] (selected "T1.fix" catalog);
  Alcotest.(check int)
    "T1 selects every T1.* id" 8
    (List.length (selected "T1" catalog));
  Alcotest.(check (list string))
    "an exact id" [ "Z.zoo" ] (selected "Z.zoo" catalog);
  let families =
    List.map (fun id -> (id, ())) [ "B.micro"; "B.scale" ]
  in
  Alcotest.(check (list string))
    "B.scale" [ "B.scale" ] (selected "B.scale" families);
  match Cli.select "B.s" families with
  | Ok _ -> Alcotest.fail "a partial segment must not match"
  | Error m ->
    List.iter
      (fun (id, ()) ->
         Alcotest.(check bool)
           ("error lists " ^ id) true
           (contains ~needle:id m))
      families

let test_cluster_kinds () =
  List.iter
    (fun (k, _) ->
       let name = Cluster.Session.kind_name k in
       match Cluster.Session.kind_of_name name with
       | Ok k' ->
         Alcotest.(check string) "round trip" name
           (Cluster.Session.kind_name k')
       | Error m -> Alcotest.fail m)
    Cluster.Session.kinds;
  Alcotest.(check int) "four kinds" 4 (List.length Cluster.Session.kinds);
  (match Cluster.Session.kind_of_name "proxy-global" with
   | Ok Cluster.Session.Proxy_global -> ()
   | _ -> Alcotest.fail "proxy-global must stay accepted");
  match Cluster.Session.kind_of_name "local-fixx" with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error m ->
    List.iter
      (fun (k, _) ->
         let name = Cluster.Session.kind_name k in
         Alcotest.(check bool)
           ("error lists " ^ name) true
           (contains ~needle:name m))
      Cluster.Session.kinds

let test_bad_values_are_errors () =
  let instance =
    Term.term_result'
      Term.(const (fun w -> Result.map ignore (Cli.instance w)) $ Cli.workload)
  in
  (match eval instance [ "-w"; "mix"; "-n"; "6" ] with
   | Ok (`Ok ()) -> ()
   | _ -> Alcotest.fail "a known workload must build");
  (match eval instance [ "-w"; "nonesuch" ] with
   | Error `Term -> ()
   | _ -> Alcotest.fail "an unknown workload must be a CLI error");
  (* a value the generator refuses is an error, not an uncaught
     Invalid_argument *)
  List.iter
    (fun args ->
       match eval instance args with
       | Error `Term -> ()
       | _ -> Alcotest.failf "%s must be an error" (String.concat " " args))
    [
      [ "-n"; "0" ]; [ "--rounds"; "0" ]; [ "-d"; "0" ]; [ "--load"; "nan" ];
      [ "-w"; "thm21"; "-d"; "1" ]; [ "-w"; "thm37"; "-d"; "0" ];
      [ "-w"; "thm22"; "-d"; "3" ]; [ "-w"; "mix"; "-n"; "0" ];
    ];
  List.iter
    (fun fmt ->
       match eval Cli.metrics [ "--metrics"; fmt ] with
       | Error `Parse -> ()
       | _ -> Alcotest.failf "--metrics %s must be a usage error" fmt)
    [ "bogus"; "csv" ];
  (match eval Cli.score [ "--score"; "bogus" ] with
   | Error `Parse -> ()
   | _ -> Alcotest.fail "--score bogus must be a usage error");
  (* --jobs is bounded by the runtime's domain limit; parsing spawns
     nothing, so the out-of-range values are safe to try *)
  Alcotest.(check (option (option int)))
    "--jobs 128 parses" (Some (Some 128)) (parsed Cli.jobs [ "--jobs"; "128" ]);
  List.iter
    (fun args ->
       match eval Cli.jobs args with
       | Error `Parse -> ()
       | _ ->
         Alcotest.failf "%s must be a usage error" (String.concat " " args))
    [ [ "--jobs"; "0" ]; [ "--jobs=-1" ]; [ "--jobs"; "129" ] ]

(* Exit codes: a usage error keeps cmdliner's 124, a command that ran
   and failed exits 1 (its message on stderr), success exits 0. *)
let exit_code work args =
  let err = Format.formatter_of_buffer (Buffer.create 256) in
  Cmd.eval' ~err ~help:err
    ~argv:(Array.of_list ("prog" :: args))
    (Cmd.v (Cmd.info "prog")
       (Term.term_result'
          Term.(const (fun _jobs -> Cli.run work) $ Cli.jobs)))

let test_exit_codes () =
  let ok () = Ok () in
  let failed_checks () = Error "2 failed checks" in
  let raising_job () =
    ignore
      (Obs.Instrument.jobs ~domains:1 ~family:"F.test"
         [ ("boom", fun () -> failwith "planted") ]
        : unit list);
    Ok ()
  in
  Alcotest.(check int) "success" 0 (exit_code ok [ "--jobs"; "1" ]);
  Alcotest.(check int) "failed checks" 1
    (exit_code failed_checks [ "--jobs"; "1" ]);
  Alcotest.(check int) "a raising job" 1 (exit_code raising_job []);
  Alcotest.(check int) "--jobs 0 is a usage error" 124
    (exit_code ok [ "--jobs"; "0" ]);
  Alcotest.(check int) "and stays one when the work would fail" 124
    (exit_code failed_checks [ "--jobs"; "0" ]);
  Alcotest.(check int) "an action's own Error is a usage error" 124
    (Cmd.eval'
       ~err:(Format.formatter_of_buffer (Buffer.create 64))
       ~argv:[| "prog" |]
       (Cmd.v (Cmd.info "prog")
          (Cli.exits Term.(const (Error "d must be >= 2")))))

(* The built reqsched, for what only the binary's own wiring decides.
   It sits next to this test in the build tree; a run still going
   after [limit] seconds is killed and reported as [None]. *)
let reqsched =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "reqsched.exe" ]

let run_reqsched ?(limit = 10.0) args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process reqsched
      (Array.of_list ("reqsched" :: args))
      Unix.stdin null null
  in
  Unix.close null;
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 > limit ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      None
    | 0, _ ->
      Unix.sleepf 0.005;
      wait ()
    | _, Unix.WEXITED code -> Some (code, Unix.gettimeofday () -. t0)
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1, 0.0)
  in
  wait ()

let exits_124 ?limit args =
  match run_reqsched ?limit args with
  | Some (124, dt) -> dt
  | Some (code, _) ->
    Alcotest.failf "reqsched %s exited %d, want 124" (String.concat " " args)
      code
  | None ->
    Alcotest.failf "reqsched %s still running after the limit"
      (String.concat " " args)

(* an exhaustive search size out of range is refused before any job
   runs, not reported as a raising job (exit 1) *)
let test_search_sizes () =
  List.iter
    (fun args -> ignore (exits_124 ("search" :: args)))
    [ [ "-n"; "9" ]; [ "-n"; "0" ]; [ "-d"; "0" ]; [ "-d"; "4" ] ]

(* --load is bounded: a typo is refused at once, not generated *)
let test_load_bound () =
  List.iter
    (fun args ->
       let dt = exits_124 ~limit:5.0 ("run" :: args) in
       if dt > 1.0 then
         Alcotest.failf "reqsched run %s took %.2f s to refuse"
           (String.concat " " args) dt)
    [
      [ "-w"; "overload"; "--load"; "1e9"; "-n"; "1"; "--rounds"; "1" ];
      [ "-w"; "uniform"; "--load"; "1e9"; "-n"; "1"; "--rounds"; "1" ];
      [ "-w"; "vod"; "--load"; "inf" ];
      [ "-w"; "zipf"; "--load"; "inf" ];
    ]

(* Goldens of the commands that score a run: each file holds the
   stdout of the command line beside it, so a change to how runs are
   scored, or to where the optimum comes from, must leave every byte
   alone.  Regenerate one with
   [dune exec bin/reqsched.exe -- ARGS > test/golden_cli_NAME.txt]. *)
let cli_goldens =
  [
    ( "run",
      [ "run"; "-w"; "vod"; "-n"; "16"; "-d"; "4"; "--rounds"; "60";
        "--score"; "slo"; "--audit"; "--phases"; "10" ] );
    ( "compare",
      [ "compare"; "-w"; "mix"; "-n"; "16"; "-d"; "4"; "--rounds"; "60";
        "--score"; "slo" ] );
    ( "sweep",
      [ "sweep"; "-w"; "uniform"; "-n"; "8"; "-d"; "4"; "--rounds"; "40";
        "--score"; "violation" ] );
    ("cluster_thm37", [ "cluster"; "-w"; "thm37"; "-d"; "4"; "--rounds"; "24" ]);
    ( "cluster_eager",
      [ "cluster"; "-w"; "uniform"; "-n"; "12"; "-d"; "4"; "--rounds"; "30";
        "--strategy"; "local_eager" ] );
  ]

let test_cli_golden (name, args) () =
  let file = Printf.sprintf "golden_cli_%s.txt" name in
  let expected =
    (* cwd is test/ under `dune runtest`, the root under `dune exec` *)
    match
      List.find_opt Sys.file_exists [ file; Filename.concat "test" file ]
    with
    | Some p -> In_channel.with_open_bin p In_channel.input_all
    | None -> Alcotest.failf "%s not found" file
  in
  let ic =
    Unix.open_process_args_in reqsched (Array.of_list ("reqsched" :: args))
  in
  let got = In_channel.input_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.failf "reqsched %s failed" (String.concat " " args));
  if got <> expected then
    Alcotest.failf "reqsched %s drifted from test/%s\n--- expected ---\n%s--- got ---\n%s"
      (String.concat " " args) file expected got

let () =
  Alcotest.run "cli"
    [
      ( "flags",
        [
          Alcotest.test_case "trailing value flag" `Quick
            test_trailing_value_is_error;
        ] );
      ( "select",
        [
          Alcotest.test_case "whole segments" `Quick
            test_select_whole_segments;
        ] );
      ( "names",
        [
          Alcotest.test_case "cluster kinds" `Quick test_cluster_kinds;
          Alcotest.test_case "bad values are errors" `Quick
            test_bad_values_are_errors;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "binary",
        [
          Alcotest.test_case "search sizes are usage errors" `Quick
            test_search_sizes;
          Alcotest.test_case "a huge load is refused at once" `Quick
            test_load_bound;
        ] );
      ( "golden",
        List.map
          (fun ((name, _) as g) ->
             Alcotest.test_case name `Quick (test_cli_golden g))
          cli_goldens );
    ]
