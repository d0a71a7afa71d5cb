type run = {
  outcome : Sched.Outcome.t;
  opt : int;
  ratio : float;
}

let ratio_of ~opt ~served =
  if served = 0 then if opt = 0 then 1.0 else infinity
  else float_of_int opt /. float_of_int served

let run_instance ?metrics inst factory =
  let metrics = Obs.Metrics.resolve metrics in
  let outcome = Sched.Engine.run ?metrics inst factory in
  let opt = Offline.Opt.value inst in
  { outcome; opt; ratio = ratio_of ~opt ~served:outcome.Sched.Outcome.served }

type anytime = {
  run : run;
  opt_curve : int array;
  alg_curve : int array;
  ratio_curve : float array;
}

let run_instance_anytime ?metrics inst factory =
  let metrics = Obs.Metrics.resolve metrics in
  let outcome = Sched.Engine.run ?metrics inst factory in
  let opt_curve = Offline.Opt_stream.prefix_curve ?metrics inst in
  let alg_curve =
    let acc = ref 0 in
    Array.map
      (fun served ->
         acc := !acc + served;
         !acc)
      outcome.Sched.Outcome.per_round_served
  in
  let ratio ~opt ~alg = ratio_of ~opt ~served:alg in
  let horizon = Array.length opt_curve in
  let opt = if horizon = 0 then 0 else opt_curve.(horizon - 1) in
  {
    run =
      {
        outcome;
        opt;
        ratio = ratio ~opt ~alg:outcome.Sched.Outcome.served;
      };
    opt_curve;
    alg_curve;
    ratio_curve =
      Array.mapi (fun r opt -> ratio ~opt ~alg:alg_curve.(r)) opt_curve;
  }

let run_scenario (sc : Adversary.Scenario.t) factory =
  let r = run_instance sc.Adversary.Scenario.instance factory in
  (match sc.Adversary.Scenario.opt_hint with
   | Some hint when hint <> r.opt ->
     failwith
       (Printf.sprintf
          "scenario %s: analytic optimum %d disagrees with computed %d"
          sc.Adversary.Scenario.name hint r.opt)
   | Some _ | None -> ());
  r

let diffs ~make ~factory ~k =
  let sc1 = make k and sc2 = make (2 * k) in
  let r1 = run_scenario sc1 (factory sc1) in
  let r2 = run_scenario sc2 (factory sc2) in
  let dopt = r2.opt - r1.opt
  and dalg =
    r2.outcome.Sched.Outcome.served - r1.outcome.Sched.Outcome.served
  in
  (dopt, dalg)

let asymptotic_ratio ~make ~factory ~k =
  let dopt, dalg = diffs ~make ~factory ~k in
  if dalg = 0 then infinity else float_of_int dopt /. float_of_int dalg

let asymptotic_ratio_exact ~make ~factory ~k =
  let dopt, dalg = diffs ~make ~factory ~k in
  Prelude.Rat.make dopt dalg

let rat_cell r =
  Printf.sprintf "%s (%.4f)" (Prelude.Rat.to_string r)
    (Prelude.Rat.to_float r)

let float_cell = Prelude.Texttable.cell_ratio
