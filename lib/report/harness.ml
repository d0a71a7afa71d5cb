module Slo = Analysis.Slo

type run = {
  outcome : Sched.Outcome.t;
  opt : int;
  ratio : float;
  anytime_ratio : float;
  scores : Slo.scores;
}

let optimum ?metrics inst = Offline.Opt_stream.prefix_curve ?metrics inst

(* One engine run: its own events feed the SLO accumulator, and each
   round's served count, against the curve, the anytime ratio. *)
let score ?metrics ~curve inst factory =
  let acc = Slo.create () in
  let served = ref 0 and worst = ref 1.0 in
  let observer =
    {
      Sched.Engine.arrivals =
        (fun round arrivals ->
           Array.iter
             (fun (r : Sched.Request.t) ->
                Slo.on_submit acc ~id:r.id ~round ~deadline:r.deadline)
             arrivals);
      served =
        (fun id round ->
           incr served;
           Slo.on_serve acc ~id ~round);
      expired = (fun id round -> Slo.on_expire acc ~id ~round);
      round_done =
        (fun round ->
           Slo.on_round acc;
           let r = Slo.ratio_of ~opt:curve.(round) ~served:!served in
           if r > !worst then worst := r);
    }
  in
  let outcome = Sched.Engine.run ?metrics ~observer inst factory in
  let opt = Offline.Opt.final curve in
  {
    outcome;
    opt;
    ratio = Slo.ratio_of ~opt ~served:outcome.Sched.Outcome.served;
    anytime_ratio = !worst;
    scores = Slo.scores acc;
  }

let run_instance ?metrics inst factory =
  score ?metrics ~curve:(optimum ?metrics inst) inst factory

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
