(* Tests for the report-layer utilities: Gantt rendering, CSV export
   and the ratio guard.  (The experiment integration tests live in
   test_report.) *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine

let check = Alcotest.check

let req ~arrival ~alts ~deadline =
  Request.make ~arrival ~alternatives:alts ~deadline

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let small_outcome () =
  let inst =
    Instance.build ~n_resources:2 ~d:2
      [
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:2;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0; 1 ] ~deadline:1;
      ]
  in
  Engine.run inst (Strategies.Global.balance ())

(* ------------------------------------------------------------------ *)
(* Gantt *)

let test_gantt_shape () =
  let o = small_outcome () in
  let s = Report.Gantt.render o in
  let lines = String.split_on_char '\n' s in
  (* title, ruler, one line per resource *)
  check Alcotest.bool "has resource rows" true
    (List.exists (fun l -> contains ~needle:"S0" l) lines
     && List.exists (fun l -> contains ~needle:"S1" l) lines);
  check Alcotest.bool "mentions strategy" true
    (contains ~needle:"A_balance" s)

let test_gantt_idle_dots () =
  (* a singleton request leaves the other resource idle *)
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [ req ~arrival:0 ~alts:[ 0 ] ~deadline:1 ]
  in
  let o = Engine.run inst (Strategies.Global.balance ()) in
  let s = Report.Gantt.render o in
  check Alcotest.bool "glyph for request 0" true (contains ~needle:"0" s);
  check Alcotest.bool "idle dot" true (contains ~needle:"." s)

let test_gantt_failures_listed () =
  let o = small_outcome () in
  (* 5 requests with 2 resources and deadline <= 2: at most 4 servable *)
  let s = Report.Gantt.render_with_failures o in
  check Alcotest.bool "lists failed ids" true
    (contains ~needle:"failed (arrived round 0)" s)

let test_gantt_truncation () =
  let protos =
    List.init 300 (fun i -> req ~arrival:i ~alts:[ 0 ] ~deadline:1)
  in
  let inst = Instance.build ~n_resources:1 ~d:1 protos in
  let o = Engine.run inst (Strategies.Global.fix ()) in
  let s = Report.Gantt.render ~max_rounds:50 o in
  check Alcotest.bool "notes truncation" true
    (contains ~needle:"truncated at 50 of 300 rounds" s)

let test_gantt_comparison () =
  let o = small_outcome () in
  let s = Report.Gantt.render_comparison o o in
  check Alcotest.bool "has divider" true
    (contains ~needle:"----------" s)

(* ------------------------------------------------------------------ *)
(* Export *)

let test_csv_of_table () =
  let t =
    Prelude.Texttable.create ~title:"demo" ~header:[ "a"; "b" ] ()
  in
  Prelude.Texttable.add_row t [ "x,y"; "plain" ];
  Prelude.Texttable.add_rule t;
  Prelude.Texttable.add_row t [ "with \"quote\""; "2" ];
  let csv = Report.Export.csv_of_table t in
  check Alcotest.string "csv"
    "# demo\na,b\n\"x,y\",plain\n\"with \"\"quote\"\"\",2\n" csv

let test_csv_of_outcome () =
  let inst =
    Instance.build ~n_resources:2 ~d:1
      [
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
        req ~arrival:0 ~alts:[ 0 ] ~deadline:1;
      ]
  in
  let o = Engine.run inst (Strategies.Global.fix ()) in
  let csv = Report.Export.csv_of_outcome o in
  check Alcotest.bool "has header" true
    (contains ~needle:"id,arrival,deadline,served,resource,round,latency" csv);
  check Alcotest.bool "served row" true (contains ~needle:"0,0,1,1,0,0,0" csv);
  check Alcotest.bool "failed row" true (contains ~needle:"1,0,1,0,,," csv)

let test_write_file_roundtrip () =
  let path = Filename.temp_file "reqsched_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Report.Export.write_file ~path "hello,world\n";
       let ic = open_in path in
       let line = input_line ic in
       close_in ic;
       check Alcotest.string "roundtrip" "hello,world" line)

let test_texttable_accessors () =
  let t = Prelude.Texttable.create ~title:"t" ~header:[ "h1"; "h2" ] () in
  Prelude.Texttable.add_row t [ "a" ];
  check Alcotest.(option string) "title" (Some "t")
    (Prelude.Texttable.title t);
  check Alcotest.(list string) "header" [ "h1"; "h2" ]
    (Prelude.Texttable.header t);
  check
    Alcotest.(list (list string))
    "rows padded"
    [ [ "a"; "" ] ]
    (Prelude.Texttable.rows t)

(* ------------------------------------------------------------------ *)
(* Slo.ratio_of, the one guard the harness and every report use *)

let test_ratio_of () =
  check (Alcotest.float 1e-9) "normal" 1.25
    (Analysis.Slo.ratio_of ~opt:5 ~served:4);
  check (Alcotest.float 1e-9) "both zero" 1.0
    (Analysis.Slo.ratio_of ~opt:0 ~served:0);
  check Alcotest.bool "served zero, opt positive" true
    (Analysis.Slo.ratio_of ~opt:7 ~served:0 = infinity);
  (* the regression the compare/sweep tables had: opt /. max 1 served
     silently printed opt itself for a shut-out strategy *)
  check Alcotest.bool "not the naive guard" true
    (Analysis.Slo.ratio_of ~opt:7 ~served:0 <> 7.0);
  check Alcotest.string "renders as inf, not a number" "inf"
    (Printf.sprintf "%.4f" (Analysis.Slo.ratio_of ~opt:7 ~served:0)
     |> fun s -> String.sub s 0 3);
  let idle : Sched.Strategy.factory =
   fun ~n:_ ~d:_ ->
    { Sched.Strategy.name = "idle"; step = (fun ~round:_ ~arrivals:_ -> []) }
  in
  let inst = (small_outcome ()).Sched.Outcome.instance in
  let r = Report.Harness.run_instance inst idle in
  check Alcotest.bool "run_instance: shut out is inf" true
    (r.Report.Harness.ratio = infinity)

let qtest ?(count = 80) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let prop_gantt_glyphs_match_served =
  (* one glyph per served request inside the drawn range *)
  qtest "gantt draws exactly the served slots"
    QCheck.(pair (int_range 2 4) (int_range 0 600))
    (fun (n, seed) ->
       let rng = Prelude.Rng.create ~seed in
       let inst =
         Adversary.Random_workload.make ~rng ~n ~d:3 ~rounds:20 ~load:1.2 ()
       in
       let o = Engine.run inst (Strategies.Global.balance ()) in
       let s = Report.Gantt.render ~max_rounds:1000 o in
       (* count non-dot cells in the resource rows *)
       let cells = ref 0 in
       List.iter
         (fun line ->
            if String.length line > 1 && line.[0] = 'S' then begin
              let body =
                try String.sub line 6 (String.length line - 6)
                with Invalid_argument _ -> ""
              in
              String.iter (fun c -> if c <> '.' && c <> ' ' then incr cells)
                body
            end)
         (String.split_on_char '\n' s);
       !cells = o.Sched.Outcome.served)

let prop_csv_outcome_row_count =
  qtest "outcome CSV has one row per request plus header"
    QCheck.(int_range 0 500)
    (fun seed ->
       let rng = Prelude.Rng.create ~seed in
       let inst =
         Adversary.Random_workload.make ~rng ~n:3 ~d:2 ~rounds:10 ~load:1.0 ()
       in
       let o = Engine.run inst (Strategies.Global.fix ()) in
       let csv = Report.Export.csv_of_outcome o in
       let lines =
         List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
       in
       List.length lines = 1 + Sched.Instance.n_requests inst)

let () =
  Alcotest.run "report-utils"
    [
      ( "gantt",
        [
          Alcotest.test_case "shape" `Quick test_gantt_shape;
          Alcotest.test_case "idle dots" `Quick test_gantt_idle_dots;
          Alcotest.test_case "failures listed" `Quick
            test_gantt_failures_listed;
          Alcotest.test_case "truncation" `Quick test_gantt_truncation;
          Alcotest.test_case "comparison" `Quick test_gantt_comparison;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv of table" `Quick test_csv_of_table;
          Alcotest.test_case "csv of outcome" `Quick test_csv_of_outcome;
          Alcotest.test_case "write file" `Quick test_write_file_roundtrip;
          Alcotest.test_case "texttable accessors" `Quick
            test_texttable_accessors;
        ] );
      ( "harness",
        [ Alcotest.test_case "ratio_of" `Quick test_ratio_of ] );
      ( "properties",
        [ prop_gantt_glyphs_match_served; prop_csv_outcome_row_count ] );
    ]
