module Texttable = Prelude.Texttable
module Slo = Analysis.Slo

(* every deterministic strategy with a live-engine implementation; the
   randomised greedy and the message-passing locals are excluded so a
   zoo cell is a pure function of its key (the cache contract) *)
let strategies =
  [
    "fix"; "current"; "fix_balance"; "eager"; "balance"; "edf"; "edf_coord";
    "greedy_2choice";
  ]

(* (n, d, rounds) of the quick / full tier, and the one seed every cell
   shares: workload draws are keyed per round and strategy coins are
   split (see Registry.factory_of_name) *)
let tier ~quick = if quick then (6, 4, 40) else (8, 4, 240)
let seed = 7

let pi = string_of_int

let encode_scores (s : Slo.scores) =
  [
    Jobs.Int s.submitted;
    Jobs.Int s.served;
    Jobs.Int s.expired;
    Jobs.Int s.rounds;
    Jobs.Float s.violation_rate;
    Jobs.Float s.throughput;
    Jobs.Float s.antt;
    Jobs.Float s.max_delay_factor;
    Jobs.Int s.machines_needed;
  ]

let decode_scores o =
  let iv i = Jobs.int_value (Jobs.nth o i) in
  let fv i = Jobs.float_value (Jobs.nth o i) in
  {
    Slo.submitted = iv 0;
    served = iv 1;
    expired = iv 2;
    rounds = iv 3;
    violation_rate = fv 4;
    throughput = fv 5;
    antt = fv 6;
    max_delay_factor = fv 7;
    machines_needed = iv 8;
  }

(* The job value is the full score record, not one chosen metric, so a
   cached cell answers every --score mode and table column alike. *)
let score_value (r : Slo.streamed) =
  Jobs.List
    (encode_scores r.scores
     @ [ Jobs.Int r.opt; Jobs.Float r.final_ratio; Jobs.Float r.anytime_ratio ])

type cell = {
  scores : Slo.scores;
  opt : int;
  final_ratio : float;
  anytime_ratio : float;
}

let cell_of_outcome o =
  match o with
  | Jobs.Failed _ -> None
  | Jobs.Done _ ->
      let iv i = Jobs.int_value (Jobs.nth o i) in
      let fv i = Jobs.float_value (Jobs.nth o i) in
      Some
        {
          scores = decode_scores o;
          opt = iv 9;
          final_ratio = fv 10;
          anytime_ratio = fv 11;
        }

let zoo_job ~workload ~strategy ~n ~d ~rounds ~load =
  Jobs.job
    ~name:(workload ^ "/" ^ strategy)
    ~params:
      [
        ("workload", workload);
        ("strategy", strategy);
        ("n", pi n);
        ("d", pi d);
        ("rounds", pi rounds);
        ("load", Printf.sprintf "%h" load);
        ("seed", pi seed);
      ]
    (fun ~attempt:_ ->
      let inst =
        match Workload.Zoo.generate ~name:workload ~n ~d ~rounds ~load ~seed with
        | Ok i -> i
        | Error m -> failwith m
      in
      let factory =
        match Registry.factory_of_name ~seed strategy with
        | Ok f -> f
        | Error m -> failwith m
      in
      score_value (Slo.score_stream inst factory))

let eps = 1e-9

let well_formed ~n ~d c =
  let s = c.scores in
  let conserved = s.served + s.expired = s.submitted in
  let viol_ok = s.violation_rate >= 0.0 && s.violation_rate <= 1.0 in
  let thr_ok = s.throughput >= 0.0 && s.throughput <= float_of_int n +. eps in
  let antt_ok =
    if s.served = 0 then Float.is_nan s.antt
    else s.antt >= 1.0 -. eps && s.antt <= float_of_int d +. eps
  in
  (* a request with deadline D contributes at most (D + 1) / D, which
     peaks at 2 for D = 1 (mix tightens deadlines below the nominal d) *)
  let delay_ok =
    if s.submitted = 0 then Float.is_nan s.max_delay_factor
    else s.max_delay_factor > 0.0 && s.max_delay_factor <= 2.0 +. eps
  in
  let machines_ok = s.machines_needed >= if s.submitted > 0 then 1 else 0 in
  let ratio_ok =
    c.opt >= s.served
    && c.final_ratio >= 1.0 -. eps
    && c.anytime_ratio >= c.final_ratio -. eps
  in
  conserved && viol_ok && thr_ok && antt_ok && delay_ok && machines_ok
  && ratio_ok

let summary ~ctx ~quick =
  let n, d, rounds = tier ~quick in
  let cases =
    List.concat_map
      (fun (f : Workload.Zoo.family) ->
        List.map (fun strategy -> (f, strategy)) strategies)
      Workload.Zoo.families
  in
  let outcomes =
    Jobs.map ctx ~family:"Z.zoo"
      ~shared:[ ("quick", if quick then "1" else "0") ]
      (List.map
         (fun ((f : Workload.Zoo.family), strategy) ->
           zoo_job ~workload:f.key ~strategy ~n ~d ~rounds
             ~load:f.default_load)
         cases)
  in
  let table =
    Texttable.create
      ~title:
        (Printf.sprintf
           "Z.zoo  --  SLO scores, %d strategies x %d workloads (n=%d d=%d \
            rounds=%d)"
           (List.length strategies)
           (List.length Workload.Zoo.families)
           n d rounds)
      ~header:
        [
          "workload"; "strategy"; "served/sub"; "viol%"; "thr/round"; "antt";
          "maxDF"; "m>="; "anytime"; "ratio";
        ]
      ()
  in
  let checks =
    List.map2
      (fun ((f : Workload.Zoo.family), strategy) o ->
        let render mk = Jobs.cell o (fun _ -> mk ()) in
        let c = cell_of_outcome o in
        let row =
          match c with
          | None ->
              [ f.key; strategy ] @ List.init 8 (fun _ -> render (fun () -> "?"))
          | Some c ->
              let s = c.scores in
              let m mode = Slo.mode_cell mode ~ratio:c.final_ratio s in
              [
                f.key;
                strategy;
                render (fun () -> Printf.sprintf "%d/%d" s.served s.submitted);
                m Slo.Violation;
                m Slo.Throughput;
                m Slo.Antt;
                m Slo.Delay;
                m Slo.Machines;
                render (fun () -> Printf.sprintf "%.3f" c.anytime_ratio);
                m Slo.Ratio;
              ]
        in
        Texttable.add_row table row;
        let ok = match c with None -> false | Some c -> well_formed ~n ~d c in
        (Printf.sprintf "%s x %s: scores well-formed" f.key strategy, ok))
      cases outcomes
  in
  {
    Experiments.id = "Z.zoo";
    title = "workload zoo: SLO scores for every strategy";
    table;
    checks;
  }

let catalog = [ ("Z.zoo", fun ~ctx ~quick -> summary ~ctx ~quick) ]
