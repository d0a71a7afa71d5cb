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
  (match eval Cli.metrics [ "--metrics"; "bogus" ] with
   | Error `Parse -> ()
   | _ -> Alcotest.fail "--metrics bogus must be a usage error");
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
        ] );
    ]
