module Texttable = Prelude.Texttable
module Slo = Analysis.Slo

(* every deterministic strategy with a live-engine implementation; the
   randomised greedy and the message-passing locals are excluded so a
   zoo cell is a pure function of its workload and strategy *)
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

let zoo_job ~workload ~strategy ~n ~d ~rounds ~load =
  ( workload ^ "/" ^ strategy,
    fun () ->
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
      Harness.run_instance inst factory )

let eps = 1e-9

let well_formed ~n ~d (c : Harness.run) =
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
    && c.ratio >= 1.0 -. eps
    && c.anytime_ratio >= c.ratio -. eps
  in
  conserved && viol_ok && thr_ok && antt_ok && delay_ok && machines_ok
  && ratio_ok

let summary ?domains ~quick () =
  let n, d, rounds = tier ~quick in
  let cases =
    List.concat_map
      (fun (f : Workload.Zoo.family) ->
        List.map (fun strategy -> (f, strategy)) strategies)
      Workload.Zoo.families
  in
  let cells =
    Obs.Instrument.jobs ?domains ~family:"Z.zoo"
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
      (fun ((f : Workload.Zoo.family), strategy) (c : Harness.run) ->
        let s = c.scores in
        let m mode = Slo.mode_cell mode ~ratio:c.ratio s in
        Texttable.add_row table
          [
            f.key;
            strategy;
            Printf.sprintf "%d/%d" s.served s.submitted;
            m Slo.Violation;
            m Slo.Throughput;
            m Slo.Antt;
            m Slo.Delay;
            m Slo.Machines;
            Printf.sprintf "%.3f" c.anytime_ratio;
            m Slo.Ratio;
          ];
        ( Printf.sprintf "%s x %s: scores well-formed" f.key strategy,
          well_formed ~n ~d c ))
      cases cells
  in
  {
    Experiments.id = "Z.zoo";
    title = "workload zoo: SLO scores for every strategy";
    table;
    checks;
  }

let catalog = [ ("Z.zoo", summary) ]
