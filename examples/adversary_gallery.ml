(* The adversary gallery: every lower-bound construction of the paper,
   run live against its target strategy.

   Each theorem in Section 2 builds a periodic request sequence plus an
   adversarial tie-break under which the target strategy provably loses
   a fixed fraction per phase.  This example replays each construction
   and prints the measured per-phase competitive ratio next to the
   paper's bound — they agree exactly (Thm 2.2 up to its drain-argument
   boundary effects).

     dune exec examples/adversary_gallery.exe *)

module Rat = Prelude.Rat

let gallery =
  let k = 6 in
  [
    ( "Thm 2.1: A_fix vs block-and-overlap phases",
      "2 - 1/d = 7/4",
      fun () ->
        Report.Harness.asymptotic_ratio
          ~make:(fun phases -> Adversary.Thm21.make ~d:4 ~phases)
          ~factory:(fun sc -> Strategies.Global.fix ~bias:sc.bias ())
          ~k );
    ( "Thm 2.2: A_current starves late groups (ell=4, d=12)",
      "-> e/(e-1) = 1.5820 (finite: 1.41)",
      fun () ->
        Report.Harness.asymptotic_ratio
          ~make:(fun phases -> Adversary.Thm22.make ~ell:4 ~d:12 ~phases)
          ~factory:(fun sc -> Strategies.Global.current ~bias:sc.bias ())
          ~k:1 );
    ( "Thm 2.3: A_fix_balance lured onto the target pair",
      "3d/(2d+2) = 6/5",
      fun () ->
        Report.Harness.asymptotic_ratio
          ~make:(fun phases -> Adversary.Thm23.make ~d:4 ~phases)
          ~factory:(fun sc -> Strategies.Global.fix_balance ~bias:sc.bias ())
          ~k );
    ( "Thm 2.4: A_eager serves the wrong pair first",
      "4/3",
      fun () ->
        Report.Harness.asymptotic_ratio
          ~make:(fun phases -> Adversary.Thm24.make ~d:4 ~phases)
          ~factory:(fun sc -> Strategies.Global.eager ~bias:sc.bias ())
          ~k );
    ( "Thm 2.5: A_balance ignores the overloaded second choice (d=5)",
      "(5d+2)/(4d+1) = 27/21 (diluted by anchors at 6 groups: 1.24)",
      fun () ->
        Report.Harness.asymptotic_ratio
          ~make:(fun i -> Adversary.Thm25.make ~d:5 ~groups:6 ~intervals:i)
          ~factory:(fun sc -> Strategies.Global.balance ~bias:sc.bias ())
          ~k );
    ( "Thm 3.7: A_local_fix drowned by mailbox overflow",
      "exactly 2",
      fun () ->
        let sc, priority = Adversary.Thm37.make ~d:4 ~intervals:10 in
        let r =
          Report.Harness.run_scenario sc (Localstrat.Local.fix ~priority ())
        in
        r.ratio );
  ]

let () =
  (* one construction drawn as an occupancy chart: Theorem 2.1's trap
     visible to the naked eye -- S1 (row S0) and S4 (row S3) idle in
     stripes while R1/R2 clog the pair the blocks need *)
  let sc = Adversary.Thm21.make ~d:4 ~phases:4 in
  let o =
    Sched.Engine.run sc.instance (Strategies.Global.fix ~bias:sc.bias ())
  in
  print_endline "Theorem 2.1's adversary against A_fix, as a schedule:";
  print_newline ();
  print_string (Report.Gantt.render_with_failures ~max_rounds:40 o);
  print_newline ();
  print_endline "Lower-bound constructions, measured live:";
  print_newline ();
  List.iter
    (fun (title, paper, run) ->
       let measured = run () in
       Printf.printf "%-60s\n    paper %-42s measured %.4f\n\n" title paper
         measured)
    gallery;
  (* the adaptive universal adversary, against the strongest strategy *)
  let d = 9 and phases = 10 in
  let adv = Adversary.Thm26.create ~d ~phases in
  let outcome =
    Sched.Engine.run_adaptive ~n:Adversary.Thm26.n_resources ~d
      ~last_arrival_round:(Adversary.Thm26.last_arrival_round ~d ~phases)
      ~adversary:(Adversary.Thm26.adversary adv)
      (Strategies.Global.balance ())
  in
  let opt = Offline.Opt.value outcome.instance in
  Printf.printf
    "Thm 2.6: the adaptive adversary vs A_balance (d=%d, %d phases)\n    \
     paper >= 45/41 = %.4f%40s measured %.4f\n"
    d phases
    (Rat.to_float Adversary.Thm26.ratio_bound)
    ""
    (Analysis.Slo.ratio_of ~opt ~served:outcome.served)
