(* Workload zoo: generator properties, streaming-vs-batch SLO scoring
   differential, and the golden quick-tier summary snapshot.

   The zoo generators promise three things the properties here pin:
   byte-identical regeneration from the same seed (so a job may run on
   any domain), codec-valid instances (so any zoo instance can travel
   the rsp/1 wire format and replay), and a load knob that is monotone
   in the emitted request count (so sweeps over load are meaningful). *)

module Zoo = Workload.Zoo
module Slo = Analysis.Slo
module Codec = Sched.Codec
module Instance = Sched.Instance
module Engine = Sched.Engine
module Registry = Report.Registry

(* ------------------------------------------------------------------ *)
(* shared generators *)

let params_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* d = int_range 1 5 in
    let* rounds = int_range 1 40 in
    let* load = float_range 0.0 2.5 in
    let* seed = int_range 0 10_000 in
    return (n, d, rounds, load, seed))

let params_print (n, d, rounds, load, seed) =
  Printf.sprintf "n=%d d=%d rounds=%d load=%h seed=%d" n d rounds load seed

let params_arb = QCheck.make ~print:params_print params_gen

let gen_family (f : Zoo.family) (n, d, rounds, load, seed) =
  f.Zoo.generate ~n ~d ~rounds ~load ~seed

(* ------------------------------------------------------------------ *)
(* property: same seed => byte-identical instance *)

let prop_deterministic (f : Zoo.family) =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "%s: same seed regenerates byte-identically" f.key)
    params_arb (fun p ->
      let a = Codec.to_string (gen_family f p) in
      let b = Codec.to_string (gen_family f p) in
      String.equal a b)

(* ------------------------------------------------------------------ *)
(* property: every instance survives the codec round-trip, and every
   request it carries is well-formed for its window *)

let prop_codec_valid (f : Zoo.family) =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "%s: codec round-trip and request validity" f.key)
    params_arb (fun ((n, _, rounds, _, _) as p) ->
      let inst = gen_family f p in
      let s = Codec.to_string inst in
      (match Codec.of_string s with
      | Error m -> QCheck.Test.fail_reportf "codec rejected own output: %s" m
      | Ok inst' ->
          if not (String.equal (Codec.to_string inst') s) then
            QCheck.Test.fail_report "round-trip not byte-identical");
      (* arrivals all lie inside [0, rounds): summing the per-round
         arrival arrays must account for every request exactly once *)
      let seen = ref 0 in
      for r = 0 to rounds - 1 do
        Array.iter
          (fun (req : Sched.Request.t) ->
            if req.arrival <> r then
              QCheck.Test.fail_reportf "request %d filed under round %d"
                req.id r;
            if req.deadline < 1 then
              QCheck.Test.fail_reportf "request %d: deadline %d < 1" req.id
                req.deadline;
            Array.iter
              (fun a ->
                if a < 0 || a >= n then
                  QCheck.Test.fail_reportf
                    "request %d: resource %d outside [0,%d)" req.id a n)
              req.alternatives;
            incr seen)
          (Instance.arrivals_at inst r)
      done;
      !seen = Instance.n_requests inst)

(* ------------------------------------------------------------------ *)
(* property: the load knob is monotone in the emitted request count *)

let prop_load_monotone (f : Zoo.family) =
  QCheck.Test.make ~count:80
    ~name:(Printf.sprintf "%s: request count monotone in load" f.key)
    (QCheck.make
       ~print:(fun (p, dl) ->
         Printf.sprintf "%s delta=%h" (params_print p) dl)
       QCheck.Gen.(
         let* p = params_gen in
         let* delta = float_range 0.0 1.5 in
         return (p, delta)))
    (fun ((n, d, rounds, load, seed), delta) ->
      let lo = Instance.n_requests (gen_family f (n, d, rounds, load, seed)) in
      let hi =
        Instance.n_requests (gen_family f (n, d, rounds, load +. delta, seed))
      in
      lo <= hi)

(* ------------------------------------------------------------------ *)
(* differential: streaming Slo scores == scores recomputed from the
   full outcome log, bit-exact (no tolerances) *)

let feq a b = (Float.is_nan a && Float.is_nan b) || Float.equal a b

let scores_equal (a : Slo.scores) (b : Slo.scores) =
  a.submitted = b.submitted && a.served = b.served && a.expired = b.expired
  && a.rounds = b.rounds
  && feq a.violation_rate b.violation_rate
  && feq a.throughput b.throughput
  && feq a.antt b.antt
  && feq a.max_delay_factor b.max_delay_factor
  && a.machines_needed = b.machines_needed

let pp_scores_line (s : Slo.scores) =
  Printf.sprintf
    "sub=%d served=%d expired=%d rounds=%d viol=%h thr=%h antt=%h maxdf=%h \
     m=%d"
    s.submitted s.served s.expired s.rounds s.violation_rate s.throughput
    s.antt s.max_delay_factor s.machines_needed

let factory_of_name name =
  match Registry.factory_of_name ~seed:1 name with
  | Ok f -> f
  | Error m -> Alcotest.fail m

let check_differential ~what inst strategy =
  let streamed =
    (Report.Harness.run_instance inst (factory_of_name strategy))
      .Report.Harness.scores
  in
  let batch = Slo.of_outcome (Engine.run inst (factory_of_name strategy)) in
  if not (scores_equal streamed batch) then
    Alcotest.failf "%s x %s: streaming != batch\nstream: %s\nbatch:  %s" what
      strategy
      (pp_scores_line streamed)
      (pp_scores_line batch)

(* the deterministic strategies the zoo sweeps; rotating through them
   spreads the 300 random instances over every implementation *)
let strategies = Report.Zoo.strategies

let test_differential_random () =
  let seeds = 60 in
  let count = ref 0 in
  for seed = 0 to seeds - 1 do
    List.iter
      (fun (f : Zoo.family) ->
        let n = 2 + (seed mod 5) in
        let d = 1 + (seed mod 3) in
        let rounds = 8 + (seed mod 7) in
        let load = 0.4 +. (0.2 *. float_of_int (seed mod 10)) in
        let inst = f.generate ~n ~d ~rounds ~load ~seed in
        let strategy =
          List.nth strategies (seed mod List.length strategies)
        in
        check_differential
          ~what:(Printf.sprintf "%s seed=%d" f.key seed)
          inst strategy;
        incr count)
      Zoo.families
  done;
  Alcotest.(check bool)
    "covered at least 300 random instances" true (!count >= 300)

(* every non-adaptive theorem adversary, each against two strategies
   (thm26 is adaptive: it has no fixed instance to score) *)
let test_differential_adversaries () =
  List.iter
    (fun (name, d) ->
      let inst =
        match
          Registry.instance_of_workload ~name ~n:4 ~d ~rounds:18 ~load:1.0
            ~seed:3
        with
        | Ok i -> i
        | Error m -> Alcotest.failf "%s: %s" name m
      in
      List.iter (check_differential ~what:name inst) [ "fix"; "balance" ])
    (* each adversary has its own divisibility constraint on d:
       thm22 (ell=4) needs 3 | d and 2 | d; thm23 needs d even;
       thm25 needs d = 3x - 1 *)
    [
      ("thm21", 6); ("thm22", 6); ("thm23", 6); ("thm24", 6); ("thm25", 5);
      ("thm37", 6);
    ]

(* ------------------------------------------------------------------ *)
(* golden snapshot: the quick-tier zoo summary *)

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
    [ "golden_zoo_quick.txt"; Filename.concat "test" "golden_zoo_quick.txt" ]

let render_zoo ?domains () =
  Report.Experiments.render (Report.Zoo.summary ?domains ~quick:true ())

let test_golden_zoo_quick () =
  let expected =
    match golden_path () with
    | Some p -> read_file p
    | None -> Alcotest.fail "golden_zoo_quick.txt not found"
  in
  let got = render_zoo () in
  if got <> expected then
    Alcotest.failf
      "zoo quick summary drifted from test/golden_zoo_quick.txt.\n\
       If the change is intended, regenerate with:\n\
      \  dune exec bin/reqsched.exe -- exp Z.zoo --quick > \
       test/golden_zoo_quick.txt\n\
       --- expected ---\n%s--- got ---\n%s"
      expected got

(* serial and parallel runs must render the same bytes *)
let test_jobs_determinism () =
  let serial = render_zoo ~domains:1 () in
  let parallel = render_zoo ~domains:2 () in
  Alcotest.(check string) "zoo summary identical across --jobs levels" serial
    parallel

(* ------------------------------------------------------------------ *)

let () =
  let per_family mk = List.map mk Zoo.families in
  Alcotest.run "zoo" ~and_exit:true
    [
      ( "generators",
        List.map QCheck_alcotest.to_alcotest
          (per_family prop_deterministic
          @ per_family prop_codec_valid
          @ per_family prop_load_monotone) );
      ( "slo differential",
        [
          Alcotest.test_case "300 random zoo instances" `Slow
            test_differential_random;
          Alcotest.test_case "theorem adversaries" `Quick
            test_differential_adversaries;
        ] );
      ( "golden",
        [
          Alcotest.test_case "zoo quick snapshot" `Slow test_golden_zoo_quick;
          Alcotest.test_case "serial == parallel rendering" `Slow
            test_jobs_determinism;
        ] );
    ]
