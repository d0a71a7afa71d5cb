(* The integration test: every reproduction experiment of DESIGN.md §3
   runs at quick parameters and every one of its named checks must
   pass.  This is the test-suite mirror of `reqsched exp --quick`. *)

let experiment_case
    (id, (f : ?domains:int -> quick:bool -> unit -> Report.Experiments.t)) =
  Alcotest.test_case id `Slow (fun () ->
      let e = f ~quick:true () in
      List.iter
        (fun (name, ok) ->
           Alcotest.check Alcotest.bool
             (Printf.sprintf "[%s] %s" e.Report.Experiments.id name)
             true ok)
        e.Report.Experiments.checks)

let test_harness_asymptotic_exact () =
  (* the doubling-difference estimator must cancel additive terms:
     thm 2.1 at d=3 gives exactly 5/3 per phase *)
  let measured =
    Report.Harness.asymptotic_ratio_exact
      ~make:(fun phases -> Adversary.Thm21.make ~d:3 ~phases)
      ~factory:(fun sc -> Strategies.Global.fix ~bias:sc.bias ())
      ~k:2
  in
  Alcotest.check
    (Alcotest.testable Prelude.Rat.pp Prelude.Rat.equal)
    "5/3" (Prelude.Rat.make 5 3) measured

let test_harness_opt_hint_mismatch_detected () =
  let sc = Adversary.Thm21.make ~d:2 ~phases:1 in
  let broken = { sc with Adversary.Scenario.opt_hint = Some 1 } in
  match
    Report.Harness.run_scenario broken (Strategies.Global.fix ())
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on wrong optimum hint"

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_render_contains_pass_lines () =
  let e = Report.Experiments.t1_fix_lb ~quick:true () in
  let s = Report.Experiments.render e in
  Alcotest.check Alcotest.bool "has PASS marker" true
    (contains ~needle:"[PASS]" s)

(* ------------------------------------------------------------------ *)
(* golden snapshot: the quick Table 1 summary *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_path () =
  (* cwd is test/ under `dune runtest` (the dep is copied next to the
     executable) but the project root under a bare `dune exec` *)
  List.find_opt Sys.file_exists
    [ "golden_table1_quick.txt"; Filename.concat "test" "golden_table1_quick.txt" ]

let test_golden_table1_quick () =
  let expected =
    match golden_path () with
    | Some p -> read_file p
    | None -> Alcotest.fail "golden_table1_quick.txt not found"
  in
  let e = Report.Experiments.table1_summary ~quick:true () in
  let got = Report.Experiments.render e in
  if got <> expected then
    Alcotest.failf
      "Table 1 quick summary drifted from test/golden_table1_quick.txt.\n\
       If the change is intended, regenerate with:\n\
      \  dune exec bin/reqsched.exe -- exp T1.summary --quick > \
       test/golden_table1_quick.txt\n\
       --- expected ---\n%s--- got ---\n%s"
      expected got

(* Regression: greedy_random's coin rng was hardcoded to seed 0, so
   --seed changed the workload but never the strategy's coin flips.  Two
   seeds on the SAME instance must now produce different schedules. *)
let test_registry_seed_reaches_greedy_random () =
  let inst =
    match
      Report.Registry.instance_of_workload ~name:"uniform" ~n:8 ~d:4
        ~rounds:80 ~load:1.3 ~seed:42
    with
    | Ok i -> i
    | Error m -> Alcotest.fail m
  in
  let served_at seed =
    match Report.Registry.factory_of_name ~seed "greedy_random" with
    | Error m -> Alcotest.fail m
    | Ok factory ->
      (Sched.Engine.run inst factory).Sched.Outcome.served_at
  in
  Alcotest.check Alcotest.bool "same seed reproduces" true
    (served_at 1 = served_at 1);
  Alcotest.check Alcotest.bool "different seeds differ" false
    (served_at 1 = served_at 2)

let test_registry_knows_every_strategy () =
  List.iter
    (fun name ->
       match Report.Registry.factory_of_name ~seed:0 name with
       | Ok _ -> ()
       | Error m -> Alcotest.fail m)
    Report.Registry.strategy_names;
  match Report.Registry.factory_of_name ~seed:0 "no_such_strategy" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown strategy accepted"

(* solver_names is the one list behind --solver's help and the parse
   error, so every listed name must parse and nothing else may — in
   particular not the retired ring-scan kernel's name, which was once
   accepted without being listed. *)
let test_registry_solver_names () =
  List.iter
    (fun name ->
       match Report.Registry.solver_of_name name with
       | Ok _ -> ()
       | Error m -> Alcotest.fail m)
    Report.Registry.solver_names;
  let retired = String.concat "-" [ "kernel"; "ring" ] in
  match Report.Registry.solver_of_name retired with
  | Ok _ -> Alcotest.fail (retired ^ " accepted")
  | Error m ->
    List.iter
      (fun name ->
         Alcotest.check Alcotest.bool ("error lists " ^ name) true
           (contains ~needle:name m))
      Report.Registry.solver_names

let () =
  Alcotest.run "report"
    ~and_exit:true
    [
      ( "harness",
        [
          Alcotest.test_case "asymptotic exact" `Quick
            test_harness_asymptotic_exact;
          Alcotest.test_case "hint mismatch detected" `Quick
            test_harness_opt_hint_mismatch_detected;
          Alcotest.test_case "render" `Quick test_render_contains_pass_lines;
        ] );
      ( "registry",
        [
          Alcotest.test_case "seed reaches greedy_random" `Quick
            test_registry_seed_reaches_greedy_random;
          Alcotest.test_case "every strategy constructs" `Quick
            test_registry_knows_every_strategy;
          Alcotest.test_case "solver names parse" `Quick
            test_registry_solver_names;
        ] );
      ( "golden",
        [
          Alcotest.test_case "table 1 quick snapshot" `Slow
            test_golden_table1_quick;
        ] );
      ("experiments", List.map experiment_case Report.Experiments.catalog);
    ]
