module Texttable = Prelude.Texttable
module Rat = Prelude.Rat
module Rng = Prelude.Rng
module Global = Strategies.Global
module Edf = Strategies.Edf
module Local = Localstrat.Local

type t = {
  id : string;
  title : string;
  table : Prelude.Texttable.t;
  checks : (string * bool) list;
}

let close ?(tol = 0.02) a b = Float.abs (a -. b) <= tol *. Float.abs b

let scenario_factory
    (make :
       ?solver:Global.solver -> ?bias:Sched.Strategy.bias ->
       ?metrics:Obs.Metrics.t -> unit -> Sched.Strategy.factory)
    (sc : Adversary.Scenario.t) =
  make ?bias:(Some sc.Adversary.Scenario.bias) ()

(* ------------------------------------------------------------------ *)
(* every family enumerates its cases as named jobs and runs them through
   Obs.Instrument.jobs (parallel, order-preserving); assembly of tables
   and checks stays in the submitting domain.  A job that raises fails
   the whole run, naming its family and job. *)

let jobs = Obs.Instrument.jobs

let pi = string_of_int

let yes_no ok = if ok then "yes" else "NO"

(* the first [n] results and the rest *)
let split_at n xs =
  (List.filteri (fun i _ -> i < n) xs, List.filteri (fun i _ -> i >= n) xs)

(* ------------------------------------------------------------------ *)
(* T1.fix.lb - Theorem 2.1 *)

let fix_lb_job ~d ~k =
  ( Printf.sprintf "d=%d" d,
    fun () ->
      Harness.asymptotic_ratio_exact
        ~make:(fun phases -> Adversary.Thm21.make ~d ~phases)
        ~factory:(scenario_factory Global.fix) ~k )

let t1_fix_lb ?domains ~quick () =
  let ds = if quick then [ 2; 4; 6 ] else [ 2; 3; 4; 6; 8; 12 ] in
  let k = if quick then 3 else 8 in
  let ratios =
    jobs ?domains ~family:"T1.fix.lb"
      (List.map (fun d -> fix_lb_job ~d ~k) ds)
  in
  let table =
    Texttable.create
      ~title:"T1.fix.lb  --  A_fix vs Thm 2.1 adversary (paper: 2 - 1/d)"
      ~header:[ "d"; "paper bound"; "measured (per phase)"; "exact match" ]
      ()
  in
  let checks =
    List.map2
      (fun d r ->
         let bound = Analysis.Bounds.fix_lb ~d in
         let ok = Rat.equal r bound in
         Texttable.add_row table
           [ pi d; Harness.rat_cell bound; Harness.rat_cell r; yes_no ok ];
         (Printf.sprintf "A_fix d=%d reaches 2-1/d exactly" d, ok))
      ds ratios
  in
  { id = "T1.fix.lb"; title = "A_fix lower bound (Thm 2.1)"; table; checks }

(* ------------------------------------------------------------------ *)
(* T1.current.lb - Theorem 2.2 *)

let current_lb_job ~ell ~d =
  ( Printf.sprintf "ell=%d,d=%d" ell d,
    fun () ->
      Harness.asymptotic_ratio
        ~make:(fun phases -> Adversary.Thm22.make ~ell ~d ~phases)
        ~factory:(scenario_factory Global.current) ~k:1 )

let t1_current_lb ?domains ~quick () =
  let cases =
    if quick then [ (3, 6); (4, 12) ]
    else [ (3, 6); (4, 12); (5, 60); (6, 60) ]
  in
  let measured =
    jobs ?domains ~family:"T1.current.lb"
      (List.map (fun (ell, d) -> current_lb_job ~ell ~d) cases)
  in
  let table =
    Texttable.create
      ~title:
        "T1.current.lb  --  A_current vs Thm 2.2 adversary (paper: -> \
         e/(e-1) = 1.5820)"
      ~header:
        [ "ell"; "d"; "proof reference"; "measured (per phase)"; "within 5%" ]
      ()
  in
  let checks =
    List.map2
      (fun (ell, d) m ->
         let reference =
           let alg = Adversary.Thm22.alg_lower_bound_per_phase ~ell ~d in
           float_of_int (ell * d) /. float_of_int alg
         in
         let ok = close ~tol:0.05 m reference in
         Texttable.add_row table
           [
             pi ell; pi d;
             Harness.float_cell reference;
             Harness.float_cell m;
             yes_no ok;
           ];
         (Printf.sprintf "A_current ell=%d tracks the drain argument" ell, ok))
      cases measured
  in
  let trend =
    (* the measured ratio must grow with ell toward e/(e-1); the same
       job results feed the rows above, so nothing is computed twice *)
    let rec increasing = function
      | a :: (b :: _ as rest) -> a <= b +. 0.02 && increasing rest
      | _ -> true
    in
    ( "A_current ratio grows toward e/(e-1)",
      increasing measured
      && List.for_all
           (fun m -> m < Analysis.Bounds.current_lb_float +. 0.02)
           measured )
  in
  {
    id = "T1.current.lb";
    title = "A_current lower bound (Thm 2.2)";
    table;
    checks = checks @ [ trend ];
  }

(* ------------------------------------------------------------------ *)
(* T1.fixbal.lb - Theorems 2.3 / 2.4 *)

let fixbal_lb_job ~d ~k =
  ( Printf.sprintf "d=%d" d,
    fun () ->
      Harness.asymptotic_ratio_exact
        ~make:(fun phases -> Adversary.Thm23.make ~d ~phases)
        ~factory:(scenario_factory Global.fix_balance) ~k )

(* Theorem 2.4's adversary at d = 2, against [make] *)
let d2_thm24_job make ~k =
  ( "d=2-thm24",
    fun () ->
      Harness.asymptotic_ratio_exact
        ~make:(fun phases -> Adversary.Thm24.make ~d:2 ~phases)
        ~factory:(scenario_factory make) ~k )

let t1_fixbal_lb ?domains ~quick () =
  let ds = if quick then [ 4; 6 ] else [ 4; 6; 8; 12 ] in
  let k = if quick then 3 else 6 in
  let ratios, d2_ratio =
    match
      split_at (List.length ds)
        (jobs ?domains ~family:"T1.fixbal.lb"
           (List.map (fun d -> fixbal_lb_job ~d ~k) ds
            @ [ d2_thm24_job Global.fix_balance ~k ]))
    with
    | ratios, [ d2 ] -> (ratios, d2)
    | _ -> assert false
  in
  let table =
    Texttable.create
      ~title:
        "T1.fixbal.lb  --  A_fix_balance vs Thm 2.3 adversary (paper: \
         3d/(2d+2); 4/3 at d=2 via Thm 2.4)"
      ~header:[ "d"; "paper bound"; "measured (per phase)"; "exact match" ]
      ()
  in
  let checks =
    List.map2
      (fun d r ->
         let bound = Analysis.Bounds.fix_balance_lb ~d in
         let ok = Rat.equal r bound in
         Texttable.add_row table
           [ pi d; Harness.rat_cell bound; Harness.rat_cell r; yes_no ok ];
         (Printf.sprintf "A_fix_balance d=%d reaches 3d/(2d+2)" d, ok))
      ds ratios
  in
  (* d = 2: Theorem 2.4's adversary applies to A_fix_balance *)
  let d2 =
    let bound = Rat.make 4 3 in
    let ok = Rat.equal d2_ratio bound in
    Texttable.add_row table
      [
        "2 (Thm 2.4)";
        Harness.rat_cell bound;
        Harness.rat_cell d2_ratio;
        yes_no ok;
      ];
    ("A_fix_balance d=2 reaches 4/3 (Thm 2.4)", ok)
  in
  {
    id = "T1.fixbal.lb";
    title = "A_fix_balance lower bound (Thms 2.3/2.4)";
    table;
    checks = checks @ [ d2 ];
  }

(* ------------------------------------------------------------------ *)
(* T1.eager.lb - Theorem 2.4 *)

let eager_lb_job ~d ~k =
  ( Printf.sprintf "d=%d" d,
    fun () ->
      Harness.asymptotic_ratio_exact
        ~make:(fun phases -> Adversary.Thm24.make ~d ~phases)
        ~factory:(scenario_factory Global.eager) ~k )

let t1_eager_lb ?domains ~quick () =
  let ds = if quick then [ 2; 4 ] else [ 2; 4; 6; 8; 10 ] in
  let k = if quick then 3 else 6 in
  let ratios =
    jobs ?domains ~family:"T1.eager.lb"
      (List.map (fun d -> eager_lb_job ~d ~k) ds)
  in
  let table =
    Texttable.create
      ~title:"T1.eager.lb  --  A_eager vs Thm 2.4 adversary (paper: 4/3)"
      ~header:[ "d"; "paper bound"; "measured (per phase)"; "exact match" ]
      ()
  in
  let bound = Rat.make 4 3 in
  let checks =
    List.map2
      (fun d r ->
         let ok = Rat.equal r bound in
         Texttable.add_row table
           [ pi d; Harness.rat_cell bound; Harness.rat_cell r; yes_no ok ];
         (Printf.sprintf "A_eager d=%d reaches 4/3" d, ok))
      ds ratios
  in
  { id = "T1.eager.lb"; title = "A_eager lower bound (Thm 2.4)"; table; checks }

(* ------------------------------------------------------------------ *)
(* T1.bal.lb - Theorem 2.5 *)

let bal_lb_job ~d ~groups ~intervals =
  ( Printf.sprintf "d=%d,groups=%d" d groups,
    fun () ->
      Harness.asymptotic_ratio
        ~make:(fun k -> Adversary.Thm25.make ~d ~groups ~intervals:k)
        ~factory:(scenario_factory Global.balance) ~k:intervals )

let t1_bal_lb ?domains ~quick () =
  let ds = if quick then [ 5 ] else [ 5; 8; 11 ] in
  let group_counts = if quick then [ 2; 6 ] else [ 2; 6; 12 ] in
  let intervals = if quick then 4 else 8 in
  let d2_k = if quick then 3 else 6 in
  let cases =
    List.concat_map
      (fun d -> List.map (fun groups -> (d, groups)) group_counts)
      ds
  in
  let measured =
    jobs ?domains ~family:"T1.bal.lb"
      (List.map (fun (d, groups) -> bal_lb_job ~d ~groups ~intervals) cases)
  in
  let d2_ratio =
    List.hd
      (jobs ?domains ~family:"T1.bal.lb"
         [ d2_thm24_job Global.balance ~k:d2_k ])
  in
  let table =
    Texttable.create
      ~title:
        "T1.bal.lb  --  A_balance vs Thm 2.5 adversary (paper: (5d+2)/(4d+1) \
         as n -> inf)"
      ~header:
        [ "d"; "groups"; "paper limit"; "finite-k expectation"; "measured";
          "match" ]
      ()
  in
  let checks =
    List.map2
      (fun (d, groups) m ->
         let x = (d + 1) / 3 in
         let bound = Analysis.Bounds.balance_lb ~d in
         (* per interval and group: ALG 4x-1, OPT 5x-1; shared anchor
            maintenance adds 4x services per interval to both *)
         let expect =
           float_of_int ((groups * ((5 * x) - 1)) + (4 * x))
           /. float_of_int ((groups * ((4 * x) - 1)) + (4 * x))
         in
         let ok = close ~tol:0.02 m expect in
         Texttable.add_row table
           [
             pi d; pi groups;
             Harness.rat_cell bound;
             Harness.float_cell expect;
             Harness.float_cell m;
             yes_no ok;
           ];
         (Printf.sprintf "A_balance d=%d groups=%d matches Thm 2.5" d groups,
          ok))
      cases measured
  in
  (* d = 2 via Theorem 2.4 *)
  let d2 =
    let ok = Rat.equal d2_ratio (Rat.make 4 3) in
    Texttable.add_row table
      [
        "2 (Thm 2.4)"; "-";
        Harness.rat_cell (Rat.make 4 3);
        "-";
        Harness.rat_cell d2_ratio;
        yes_no ok;
      ];
    ("A_balance d=2 reaches 4/3 (Thm 2.4)", ok)
  in
  {
    id = "T1.bal.lb";
    title = "A_balance lower bound (Thms 2.4/2.5)";
    table;
    checks = checks @ [ d2 ];
  }

(* ------------------------------------------------------------------ *)
(* T1.any.lb - Theorem 2.6 *)

let any_lb_job ~d ~phases ~name ~mk =
  ( Printf.sprintf "d=%d/%s" d name,
    fun () ->
      (* doubling difference cancels the additive constant the
         competitive definition allows *)
      let run k =
        let adv = Adversary.Thm26.create ~d ~phases:k in
        let outcome =
          Sched.Engine.run_adaptive ~n:Adversary.Thm26.n_resources ~d
            ~last_arrival_round:
              (Adversary.Thm26.last_arrival_round ~d ~phases:k)
            ~adversary:(Adversary.Thm26.adversary adv)
            (mk ?bias:None ())
        in
        ( Offline.Opt.value outcome.Sched.Outcome.instance,
          outcome.Sched.Outcome.served )
      in
      let opt1, alg1 = run phases in
      let opt2, alg2 = run (2 * phases) in
      float_of_int (opt2 - opt1) /. float_of_int (alg2 - alg1) )

let t1_any_lb ?domains ~quick () =
  let ds = if quick then [ 3; 6 ] else [ 3; 6; 9; 12 ] in
  let phases = if quick then 4 else 8 in
  let cases =
    List.concat_map
      (fun d -> List.map (fun (name, mk) -> (d, name, mk)) Global.all)
      ds
  in
  let measured =
    jobs ?domains ~family:"T1.any.lb"
      (List.map (fun (d, name, mk) -> any_lb_job ~d ~phases ~name ~mk) cases)
  in
  let table =
    Texttable.create
      ~title:
        "T1.any.lb  --  adaptive Thm 2.6 adversary vs every strategy \
         (paper: >= 45/41 = 1.0976)"
      ~header:[ "d"; "strategy"; "finite-d bound"; "measured"; ">= bound" ]
      ()
  in
  let checks =
    List.map2
      (fun (d, name, _) m ->
         let bound = Analysis.Bounds.universal_lb_finite ~d in
         let ok = m >= Rat.to_float bound -. 1e-9 in
         Texttable.add_row table
           [
             pi d; name; Harness.rat_cell bound; Harness.float_cell m;
             yes_no ok;
           ];
         (Printf.sprintf "universal bound holds for %s at d=%d" name d, ok))
      cases measured
  in
  {
    id = "T1.any.lb";
    title = "Universal lower bound (Thm 2.6)";
    table;
    checks;
  }

(* ------------------------------------------------------------------ *)
(* T1 upper bounds - Theorems 3.3-3.6 *)

(* The battery: every adversarial construction plus random workloads,
   each run with the construction's bias and once neutrally. *)
let battery ~quick ~d =
  let k = if quick then 3 else 5 in
  let scenarios =
    List.concat
      [
        [ Adversary.Thm21.make ~d ~phases:k ];
        (if d mod 2 = 0 then
           [
             Adversary.Thm23.make ~d ~phases:k;
             Adversary.Thm24.make ~d ~phases:k;
           ]
         else []);
        (if (d + 1) mod 3 = 0 then
           [ Adversary.Thm25.make ~d ~groups:2 ~intervals:k ]
         else []);
      ]
  in
  let randoms =
    let rounds = if quick then 60 else 150 in
    List.concat_map
      (fun (seed, load, profile) ->
         let rng = Rng.create ~seed in
         [
           Adversary.Random_workload.make ~rng ~n:6 ~d ~rounds ~load ?profile
             ();
         ])
      [
        (11, 0.9, None);
        (12, 1.3, None);
        (13, 1.0, Some (Adversary.Random_workload.Zipf 1.2));
      ]
  in
  let with_bias =
    List.concat_map
      (fun (sc : Adversary.Scenario.t) ->
         [ (sc.instance, sc.bias); (sc.instance, Sched.Strategy.no_bias) ])
      scenarios
  in
  with_bias @ List.map (fun i -> (i, Sched.Strategy.no_bias)) randoms

let ub_strategies ~d =
  [
    ("A_fix", (fun ?bias () -> Global.fix ?bias ()), Analysis.Bounds.fix_ub ~d, 1);
    ("A_current", (fun ?bias () -> Global.current ?bias ()), Analysis.Bounds.fix_ub ~d, 1);
    ("A_fix_balance", (fun ?bias () -> Global.fix_balance ?bias ()), Analysis.Bounds.fix_balance_ub ~d, 1);
    ("A_eager", (fun ?bias () -> Global.eager ?bias ()), Analysis.Bounds.eager_ub ~d, 2);
    ("A_balance", (fun ?bias () -> Global.balance ?bias ()), Analysis.Bounds.balance_ub ~d, 2);
  ]

(* one job per battery element: its ratio, and whether the outcome
   admits an augmenting path of the forbidden order *)
let ub_job ~d ~name ~mk ~forbidden_order ~case (inst, bias) =
  ( Printf.sprintf "d=%d/%s/case%d" d name case,
    fun () ->
      let r = Harness.run_instance inst (mk ?bias:(Some bias) ()) in
      ( r.Harness.ratio,
        Analysis.Audit.has_augmenting_of_order r.Harness.outcome
          ~order:forbidden_order ) )

(* one batch per (d, strategy): the worst ratio and whether every
   outcome passed the path audit *)
let ub_measure ?domains ~d ~name ~mk ~forbidden_order runs =
  let results =
    jobs ?domains ~family:"T1.ub"
      (List.mapi
         (fun case run -> ub_job ~d ~name ~mk ~forbidden_order ~case run)
         runs)
  in
  ( List.fold_left (fun acc (ratio, _) -> Float.max acc ratio) 0.0 results,
    List.for_all (fun (_, has_path) -> not has_path) results )

let t1_upper_bounds ?domains ~quick () =
  let ds = if quick then [ 2; 4 ] else [ 2; 3; 4; 6; 8 ] in
  let table =
    Texttable.create
      ~title:
        "T1 upper bounds  --  worst measured ratio across the adversarial + \
         random battery (Thms 3.3-3.6)"
      ~header:
        [ "d"; "strategy"; "paper UB"; "worst measured"; "<= UB";
          "path audit" ]
      ()
  in
  let checks = ref [] in
  List.iter
    (fun d ->
       let runs = battery ~quick ~d in
       List.iter
         (fun (name, mk, ub, forbidden_order) ->
            let worst, audit_ok =
              ub_measure ?domains ~d ~name ~mk ~forbidden_order runs
            in
            let ok = worst <= Rat.to_float ub +. 1e-9 in
            Texttable.add_row table
              [
                pi d;
                name;
                Harness.rat_cell ub;
                Harness.float_cell worst;
                yes_no ok;
                (if audit_ok then
                   Printf.sprintf "no aug path of order <= %d" forbidden_order
                 else "VIOLATED");
              ];
            checks :=
              (Printf.sprintf "%s d=%d within UB" name d, ok)
              :: (Printf.sprintf "%s d=%d path structure" name d, audit_ok)
              :: !checks)
         (ub_strategies ~d))
    ds;
  {
    id = "T1.ub";
    title = "Table 1 upper bounds (Thms 3.3-3.6)";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* EDF baselines - Observations 3.1 / 3.2 *)

(* The tight example for c-alternative EDF: every round, c identical
   requests over the same c resources with deadline 1; every resource
   serves the same (earliest-id) request, so EDF serves 1 per round
   while the optimum serves c. *)
let edf_tight_instance ~c ~rounds =
  let protos =
    List.concat
      (List.init rounds (fun round ->
           Adversary.Block.group ~arrival:round
             ~alternatives:(List.init c (fun r -> r))
             ~deadline:1 ~count:c))
  in
  Sched.Instance.build ~n_resources:c ~d:1 protos

let edf_baselines ?domains ~quick () =
  let rounds = if quick then 40 else 200 in
  let single_cases = [ (21, 0.8); (22, 1.2) ] in
  let tight_cases = [ 2; 3; 4 ] in
  let random_cases = [ (23, 1.0); (24, 1.6) ] in
  (* (EDF optimal and the oracle agrees, ratio) per single-alternative
     case *)
  let singles =
    jobs ?domains ~family:"E.edf"
      (List.map
         (fun (seed, load) ->
            ( Printf.sprintf "single/seed=%d" seed,
              fun () ->
                let rng = Rng.create ~seed in
                let inst =
                  Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds ~load
                    ~alternatives:1 ()
                in
                let r = Harness.run_instance inst (Edf.independent ()) in
                let edf_oracle = Offline.Opt.single_alternative_edf inst in
                ( r.Harness.outcome.Sched.Outcome.served = r.Harness.opt
                  && edf_oracle = r.Harness.opt,
                  r.Harness.ratio ) ))
         single_cases)
  in
  let tights, randoms =
    split_at (List.length tight_cases)
      (jobs ?domains ~family:"E.edf"
         (List.map
            (fun c ->
               ( Printf.sprintf "tight/c=%d" c,
                 fun () ->
                   let inst = edf_tight_instance ~c ~rounds in
                   (Harness.run_instance inst (Edf.independent ()))
                     .Harness.ratio ))
            tight_cases
          @ List.map
              (fun (seed, load) ->
                 ( Printf.sprintf "random/seed=%d" seed,
                   fun () ->
                     let rng = Rng.create ~seed in
                     let inst =
                       Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds
                         ~load ()
                     in
                     (Harness.run_instance inst (Edf.independent ()))
                       .Harness.ratio ))
              random_cases))
  in
  let table =
    Texttable.create
      ~title:
        "EDF baselines  --  Observations 3.1/3.2 (1-competitive with one \
         alternative, exactly c-competitive with c)"
      ~header:[ "case"; "paper"; "measured"; "match" ] ()
  in
  let checks = ref [] in
  (* Obs 3.1: single alternative, ratio exactly 1 *)
  List.iter2
    (fun (_, load) (ok, ratio) ->
       Texttable.add_row table
         [
           Printf.sprintf "EDF c=1 load=%.1f" load;
           "1";
           Harness.float_cell ratio;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "EDF single-alternative optimal (load %.1f)" load, ok)
         :: !checks)
    single_cases singles;
  (* Obs 3.2 tight example: exactly c *)
  List.iter2
    (fun c ratio ->
       let ok = Float.abs (ratio -. float_of_int c) < 1e-9 in
       Texttable.add_row table
         [
           Printf.sprintf "EDF tight example c=%d" c;
           pi c;
           Harness.float_cell ratio;
           yes_no ok;
         ];
       checks := (Printf.sprintf "EDF exactly %d-competitive" c, ok) :: !checks)
    tight_cases tights;
  (* Obs 3.2 upper bound on random two-choice inputs *)
  List.iter2
    (fun (_, load) ratio ->
       let ok = ratio <= 2.0 +. 1e-9 in
       Texttable.add_row table
         [
           Printf.sprintf "EDF c=2 random load=%.1f" load;
           "<= 2";
           Harness.float_cell ratio;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "EDF random two-choice within 2 (load %.1f)" load, ok)
         :: !checks)
    random_cases randoms;
  {
    id = "E.edf";
    title = "EDF baselines (Obs 3.1/3.2)";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Local strategies - Theorems 3.7 / 3.8 *)

let local_strategies ?domains ~quick () =
  let intervals = if quick then 5 else 20 in
  let rounds = if quick then 60 else 200 in
  let fix_ds = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let eager_cases =
    let mk_random seed load =
      ( Printf.sprintf "random load=%.1f" load,
        Printf.sprintf "random/seed=%d" seed,
        fun () ->
          let rng = Rng.create ~seed in
          Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds ~load () )
    in
    [
      ( "Thm 3.7 workload", "thm37",
        fun () ->
          (fst (Adversary.Thm37.make ~d:4 ~intervals))
            .Adversary.Scenario.instance );
      ( "Thm 2.1 workload", "thm21",
        fun () ->
          (Adversary.Thm21.make ~d:4 ~phases:intervals)
            .Adversary.Scenario.instance );
      ( "Thm 2.4 workload", "thm24",
        fun () ->
          (Adversary.Thm24.make ~d:4 ~phases:intervals)
            .Adversary.Scenario.instance );
      mk_random 31 1.0;
      mk_random 32 1.5;
    ]
  in
  (* (ratio, max communication rounds) per case *)
  let fixes, eagers =
    split_at (List.length fix_ds)
      (jobs ?domains ~family:"E.local"
         (List.map
            (fun d ->
               ( Printf.sprintf "fix/d=%d" d,
                 fun () ->
                   let sc, priority = Adversary.Thm37.make ~d ~intervals in
                   let factory, stats = Local.fix_with_stats ~priority () in
                   let r = Harness.run_scenario sc factory in
                   (r.Harness.ratio, (stats ()).Local.comm_rounds_max) ))
            fix_ds
          @ List.map
              (fun (_, jname, mk_inst) ->
                 ( "eager/" ^ jname,
                   fun () ->
                     let factory, stats = Local.eager_with_stats () in
                     let r = Harness.run_instance (mk_inst ()) factory in
                     (r.Harness.ratio, (stats ()).Local.comm_rounds_max) ))
              eager_cases))
  in
  let table =
    Texttable.create
      ~title:
        "Local strategies  --  A_local_fix exactly 2-competitive in 2 comm \
         rounds (Thm 3.7); A_local_eager <= 5/3 in <= 9 (Thm 3.8)"
      ~header:
        [ "case"; "paper"; "measured ratio"; "comm rounds (max)"; "match" ]
      ()
  in
  let checks = ref [] in
  (* Thm 3.7 *)
  List.iter2
    (fun d (ratio, comm) ->
       let ok = Float.abs (ratio -. 2.0) < 1e-9 && comm <= 2 in
       Texttable.add_row table
         [
           Printf.sprintf "A_local_fix, Thm 3.7 adversary, d=%d" d;
           "2, 2 rounds";
           Harness.float_cell ratio;
           pi comm;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "A_local_fix exactly 2-competitive at d=%d" d, ok)
         :: !checks)
    fix_ds fixes;
  (* Thm 3.8: battery *)
  List.iter2
    (fun (label, _, _) (ratio, comm) ->
       let ok = ratio <= (5.0 /. 3.0) +. 1e-9 && comm <= 9 in
       Texttable.add_row table
         [
           Printf.sprintf "A_local_eager, %s" label;
           "<= 5/3, <= 9 rounds";
           Harness.float_cell ratio;
           pi comm;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "A_local_eager within 5/3 on %s" label, ok) :: !checks)
    eager_cases eagers;
  {
    id = "E.local";
    title = "Local strategies (Thms 3.7/3.8)";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Figure: ratio vs d *)

let ratio_vs_d_jobs ~d ~k =
  let j name f = Some (Printf.sprintf "d=%d/%s" d name, f) in
  [
    j "fix" (fun () ->
        Harness.asymptotic_ratio
          ~make:(fun phases -> Adversary.Thm21.make ~d ~phases)
          ~factory:(scenario_factory Global.fix) ~k);
    j "fixbal" (fun () ->
        if d = 2 then
          Harness.asymptotic_ratio
            ~make:(fun phases -> Adversary.Thm24.make ~d ~phases)
            ~factory:(scenario_factory Global.fix_balance) ~k
        else
          Harness.asymptotic_ratio
            ~make:(fun phases -> Adversary.Thm23.make ~d ~phases)
            ~factory:(scenario_factory Global.fix_balance) ~k);
    j "eager" (fun () ->
        Harness.asymptotic_ratio
          ~make:(fun phases -> Adversary.Thm24.make ~d ~phases)
          ~factory:(scenario_factory Global.eager) ~k);
    (if d = 2 then
       j "bal" (fun () ->
           Harness.asymptotic_ratio
             ~make:(fun phases -> Adversary.Thm24.make ~d ~phases)
             ~factory:(scenario_factory Global.balance) ~k)
     else if (d + 1) mod 3 = 0 then
       j "bal" (fun () ->
           Harness.asymptotic_ratio
             ~make:(fun i -> Adversary.Thm25.make ~d ~groups:6 ~intervals:i)
             ~factory:(scenario_factory Global.balance) ~k)
     else None);
  ]

let series_ratio_vs_d ?domains ~quick () =
  let ds = if quick then [ 2; 4; 6 ] else [ 2; 4; 6; 8; 10; 12 ] in
  let k = if quick then 3 else 5 in
  let per_d = List.map (fun d -> (d, ratio_vs_d_jobs ~d ~k)) ds in
  let named = List.concat_map (fun (_, js) -> List.filter_map Fun.id js) per_d in
  let results = ref (jobs ?domains ~family:"F.ratio-vs-d" named) in
  let next = function
    | None -> None
    | Some _ -> (
        match !results with
        | r :: rest ->
          results := rest;
          Some r
        | [] -> assert false)
  in
  let table =
    Texttable.create
      ~title:
        "F.ratio-vs-d  --  measured worst-case ratio per strategy on its own \
         adversary (the shape of Table 1)"
      ~header:
        [ "d"; "A_fix"; "A_fix_balance"; "A_eager"; "A_balance";
          "fix UB"; "eager UB" ]
      ()
  in
  let checks = ref [] in
  List.iter
    (fun (d, js) ->
       match js with
       | [ jfix; jfixbal; jeager; jbal ] ->
         let fix = next jfix and fixbal = next jfixbal in
         let eager = next jeager and bal = next jbal in
         let fval = Option.value ~default:nan in
         let cell = function Some r -> Harness.float_cell r | None -> "-" in
         Texttable.add_row table
           [
             pi d;
             cell fix;
             cell fixbal;
             cell eager;
             cell bal;
             Harness.float_cell (Rat.to_float (Analysis.Bounds.fix_ub ~d));
             Harness.float_cell (Rat.to_float (Analysis.Bounds.eager_ub ~d));
           ];
         checks :=
           ( Printf.sprintf "fix dominates fix_balance at d=%d" d,
             fval fix >= fval fixbal -. 1e-9 )
           :: (Printf.sprintf "fix within UB at d=%d" d,
               fval fix <= Rat.to_float (Analysis.Bounds.fix_ub ~d) +. 1e-9)
           :: !checks
       | _ -> assert false)
    per_d;
  {
    id = "F.ratio-vs-d";
    title = "Figure: measured ratio vs d";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Figure: average case *)

let series_average_case ?domains ~quick () =
  let loads = if quick then [ 0.8; 1.2 ] else [ 0.6; 0.8; 1.0; 1.2; 1.5 ] in
  let profiles =
    if quick then [ ("uniform", None) ]
    else
      [
        ("uniform", None);
        ("zipf1.2", Some (Adversary.Random_workload.Zipf 1.2));
        ( "bursty",
          Some
            (Adversary.Random_workload.Bursty
               { period = 20; duty = 0.3; peak = 2.5 }) );
      ]
  in
  let seeds = if quick then [ 41 ] else [ 41; 42; 43 ] in
  let rounds = if quick then 80 else 250 in
  let strategies =
    [
      ("A_fix", fun () -> Global.fix ());
      ("A_current", fun () -> Global.current ());
      ("A_fix_balance", fun () -> Global.fix_balance ());
      ("A_eager", fun () -> Global.eager ());
      ("A_balance", fun () -> Global.balance ());
      ("EDF", fun () -> Edf.independent ());
      ("EDF_coord", fun () -> Edf.coordinated ());
      ("A_local_fix", fun () -> Local.fix ());
      ("A_local_eager", fun () -> Local.eager ());
    ]
  in
  let table =
    Texttable.create
      ~title:
        "F.avgcase  --  mean competitive ratio under stochastic arrivals \
         (the paper's 'worst case may be unrealistically pessimistic')"
      ~header:("profile" :: "load" :: List.map fst strategies)
      ()
  in
  let checks = ref [] in
  List.iter
    (fun (pname, profile) ->
       List.iter
         (fun load ->
            (* one independent job per (strategy, seed) *)
            let tasks =
              List.concat_map
                (fun (sname, mk) ->
                   List.map (fun seed -> (sname, mk, seed)) seeds)
                strategies
            in
            let ratios =
              jobs ?domains ~family:"F.avgcase"
                (List.map
                   (fun (sname, mk, seed) ->
                      ( Printf.sprintf "%s/load=%.1f/%s/seed=%d" pname load
                          sname seed,
                        fun () ->
                          let rng = Rng.create ~seed in
                          let inst =
                            Adversary.Random_workload.make ~rng ~n:8 ~d:4
                              ~rounds ~load ?profile ()
                          in
                          (Harness.run_instance inst (mk ())).Harness.ratio ))
                   tasks)
            in
            let per_seed = List.length seeds in
            let cells =
              List.mapi
                (fun si _ ->
                   let stats = Prelude.Stats.create () in
                   List.iteri
                     (fun i r ->
                        if i / per_seed = si then Prelude.Stats.add stats r)
                     ratios;
                   Prelude.Stats.mean stats)
                strategies
            in
            Texttable.add_row table
              (pname :: Printf.sprintf "%.1f" load
               :: List.map Harness.float_cell cells);
            List.iteri
              (fun i mean ->
                 let name = fst (List.nth strategies i) in
                 let limit = if name = "EDF" then 2.0 else 5.0 /. 3.0 in
                 checks :=
                   ( Printf.sprintf "%s avg ratio sane (%s load %.1f)" name
                       pname load,
                     mean >= 1.0 -. 1e-9 && mean <= limit +. 1e-9 )
                   :: !checks)
              cells)
         loads)
    profiles;
  {
    id = "F.avgcase";
    title = "Figure: average-case ratios";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Ablation: adversarial vs neutral vs random tie-break *)

let ablation_bias ?domains ~quick () =
  let k = if quick then 4 else 8 in
  let d = 4 in
  let cases =
    [
      ( "Thm 2.1",
        Adversary.Thm21.make ~d ~phases:k,
        fun ?bias () -> Global.fix ?bias () );
      ( "Thm 2.3",
        Adversary.Thm23.make ~d ~phases:k,
        fun ?bias () -> Global.fix_balance ?bias () );
      ( "Thm 2.4",
        Adversary.Thm24.make ~d ~phases:k,
        fun ?bias () -> Global.eager ?bias () );
      ( "Thm 2.5",
        Adversary.Thm25.make ~d:5 ~groups:3 ~intervals:k,
        fun ?bias () -> Global.balance ?bias () );
    ]
  in
  let modes = [ "adversarial"; "neutral"; "random" ] in
  let named =
    List.concat_map
      (fun (name, (sc : Adversary.Scenario.t), mk) ->
         List.map
           (fun mode ->
              ( Printf.sprintf "%s/%s" name mode,
                fun () ->
                  let bias =
                    match mode with
                    | "adversarial" -> sc.bias
                    | "neutral" -> Sched.Strategy.no_bias
                    | _ ->
                      let rng = Rng.create ~seed:99 in
                      Strategies.Bias.random ~rng ~magnitude:8
                  in
                  (Harness.run_instance sc.instance (mk ?bias:(Some bias) ()))
                    .Harness.ratio ))
           modes)
      cases
  in
  let results = ref (jobs ?domains ~family:"A.bias" named) in
  let next3 () =
    match !results with
    | a :: b :: c :: rest ->
      results := rest;
      (a, b, c)
    | _ -> assert false
  in
  let table =
    Texttable.create
      ~title:
        "A.bias  --  the lower bounds are existential: the same adversary \
         instance under adversarial / neutral / random tie-breaks"
      ~header:
        [ "adversary"; "strategy"; "adversarial"; "neutral"; "random";
          "adversarial is worst" ]
      ()
  in
  let checks = ref [] in
  List.iter
    (fun (name, (_ : Adversary.Scenario.t), mk) ->
       let adversarial, neutral, random = next3 () in
       (* the adversarial tie-break is tuned against this strategy, so
          it must be at least as damaging as the alternatives *)
       let ok =
         adversarial >= neutral -. 1e-9 && adversarial >= random -. 1e-9
       in
       Texttable.add_row table
         [
           name;
           (mk ?bias:None () ~n:1 ~d:2).Sched.Strategy.name;
           Harness.float_cell adversarial;
           Harness.float_cell neutral;
           Harness.float_cell random;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "adversarial bias dominates on %s" name, ok)
         :: !checks)
    cases;
  {
    id = "A.bias";
    title = "Ablation: tie-break bias";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Ablation: the keep rule of A_eager *)

let ablation_keep ?domains ~quick () =
  let k = if quick then 4 else 8 in
  let rounds = if quick then 80 else 200 in
  let cases =
    [
      ("Thm 2.1 d=4", "thm21",
       fun () -> (Adversary.Thm21.make ~d:4 ~phases:k).instance);
      ("Thm 2.4 d=4", "thm24",
       fun () -> (Adversary.Thm24.make ~d:4 ~phases:k).instance);
      ( "random load 1.2", "random-55",
        fun () ->
          let rng = Rng.create ~seed:55 in
          Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds ~load:1.2 () );
      ( "zipf load 1.0", "zipf-56",
        fun () ->
          let rng = Rng.create ~seed:56 in
          Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds ~load:1.0
            ~profile:(Adversary.Random_workload.Zipf 1.3) () );
    ]
  in
  (* (eager served, remax served, remax admits an order-2 path, remax
     well-behaved) per workload *)
  let results =
    jobs ?domains ~family:"A.keep"
      (List.map
         (fun (_, jname, mk_inst) ->
            ( jname,
              fun () ->
                let inst = mk_inst () in
                let eager = Harness.run_instance inst (Global.eager ()) in
                let remax = Harness.run_instance inst (Global.remax ()) in
                let order2 =
                  Analysis.Audit.has_augmenting_of_order remax.Harness.outcome
                    ~order:2
                in
                (* both are maximal, so neither admits an order-1 path;
                   remax stays consistent; and the keep rule never
                   hurts A_eager here *)
                let ok =
                  Sched.Outcome.is_consistent remax.Harness.outcome
                  && not
                       (Analysis.Audit.has_augmenting_of_order
                          remax.Harness.outcome ~order:1)
                in
                ( eager.Harness.outcome.Sched.Outcome.served,
                  remax.Harness.outcome.Sched.Outcome.served,
                  order2,
                  ok ) ))
         cases)
  in
  let table =
    Texttable.create
      ~title:
        "A.keep  --  A_eager vs A_remax (no 'previously scheduled remain \
         scheduled' rule)"
      ~header:
        [ "workload"; "A_eager served"; "A_remax served";
          "remax admits order-2 path" ]
      ()
  in
  let checks = ref [] in
  List.iter2
    (fun (name, _, _) (eager, remax, order2, ok) ->
       Texttable.add_row table
         [ name; pi eager; pi remax; (if order2 then "yes" else "no") ];
       checks :=
         (Printf.sprintf "remax well-behaved on %s" name, ok) :: !checks)
    cases results;
  {
    id = "A.keep";
    title = "Ablation: the keep rule";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Extension: power of c choices *)

let power_of_choices ?domains ~quick () =
  let rounds = if quick then 80 else 300 in
  let seeds = if quick then [ 61 ] else [ 61; 62; 63 ] in
  let cs = [ 1; 2; 3; 4 ] in
  let cases =
    List.concat_map (fun c -> List.map (fun seed -> (c, seed)) seeds) cs
  in
  (* (optimum, A_balance served, EDF served, A_balance ratio) per case *)
  let results =
    jobs ?domains ~family:"F.choices"
      (List.map
         (fun (c, seed) ->
            ( Printf.sprintf "c=%d/seed=%d" c seed,
              fun () ->
                let rng = Rng.create ~seed in
                let base =
                  Adversary.Random_workload.make ~rng ~n:8 ~d:4 ~rounds
                    ~load:1.3 ~alternatives:4 ()
                in
                let inst = Sched.Instance.restrict_alternatives base ~max:c in
                let r = Harness.run_instance inst (Global.balance ()) in
                let edf =
                  (Sched.Engine.run inst (Edf.independent ()))
                    .Sched.Outcome.served
                in
                ( r.Harness.opt,
                  r.Harness.outcome.Sched.Outcome.served,
                  edf,
                  r.Harness.ratio ) ))
         cases)
  in
  let table =
    Texttable.create
      ~title:
        "F.choices  --  identical traffic, alternatives truncated to the \
         first c (n=8, d=4, load 1.3, A_balance)"
      ~header:
        [ "c"; "optimum (mean)"; "A_balance served"; "EDF served";
          "A_balance ratio" ]
      ()
  in
  let means = Array.make 5 (0.0, 0.0, 0.0, 0.0) in
  List.iter
    (fun c ->
       let opt_s = Prelude.Stats.create ()
       and bal_s = Prelude.Stats.create ()
       and edf_s = Prelude.Stats.create ()
       and ratio_s = Prelude.Stats.create () in
       List.iter2
         (fun (c', _) (opt, bal, edf, ratio) ->
            if c' = c then begin
              Prelude.Stats.add opt_s (float_of_int opt);
              Prelude.Stats.add bal_s (float_of_int bal);
              Prelude.Stats.add edf_s (float_of_int edf);
              Prelude.Stats.add ratio_s ratio
            end)
         cases results;
       means.(c) <-
         ( Prelude.Stats.mean opt_s,
           Prelude.Stats.mean bal_s,
           Prelude.Stats.mean edf_s,
           Prelude.Stats.mean ratio_s );
       let opt_m, bal_m, edf_m, ratio_m = means.(c) in
       Texttable.add_row table
         [
           pi c;
           Printf.sprintf "%.1f" opt_m;
           Printf.sprintf "%.1f" bal_m;
           Printf.sprintf "%.1f" edf_m;
           Harness.float_cell ratio_m;
         ])
    cs;
  (* the optimum must grow with the choice count; the second choice is
     the big step (the paper's whole premise) *)
  let opt c = (fun (o, _, _, _) -> o) means.(c) in
  let bal c = (fun (_, b, _, _) -> b) means.(c) in
  let checks =
    [
      ("optimum weakly grows with c", opt 1 <= opt 2 +. 1e-9
                                      && opt 2 <= opt 3 +. 1e-9
                                      && opt 3 <= opt 4 +. 1e-9);
      ( "second choice helps the most",
        opt 2 -. opt 1 >= opt 3 -. opt 2 -. 1e-9 );
      ("A_balance benefits from the second choice", bal 2 > bal 1);
    ]
  in
  {
    id = "F.choices";
    title = "Extension: power of c choices";
    table;
    checks;
  }

(* ------------------------------------------------------------------ *)
(* Extension: greedy balls-into-bins baselines *)

(* served requests and, for the greedy heuristics, their mean service
   latency, at one load *)
type greedy_row = {
  g_opt : int;
  two : int * float;
  rnd : int * float;
  ff : int * float;
  g_fix : int;
  g_bal : int;
}

let greedy_baselines ?domains ~quick () =
  let rounds = if quick then 80 else 300 in
  let loads = if quick then [ 1.0; 1.4 ] else [ 0.8; 1.0; 1.2; 1.4 ] in
  let rows =
    jobs ?domains ~family:"F.greedy"
      (List.map
         (fun load ->
            ( Printf.sprintf "load=%.1f" load,
              fun () ->
                let rng = Rng.create ~seed:85 in
                let inst =
                  Adversary.Random_workload.make ~rng ~n:8 ~d:4 ~rounds ~load
                    ()
                in
                let run factory =
                  let o = Sched.Engine.run inst factory in
                  (o.Sched.Outcome.served, Sched.Outcome.mean_latency o)
                in
                let g_opt = Offline.Opt.value inst in
                let two = run (Strategies.Twochoice.least_loaded ()) in
                let rnd =
                  let rng = Rng.create ~seed:86 in
                  run (Strategies.Twochoice.random_choice ~rng ())
                in
                let ff = run (Strategies.Twochoice.first_fit ()) in
                let g_fix = fst (run (Global.fix ())) in
                let g_bal = fst (run (Global.balance ())) in
                { g_opt; two; rnd; ff; g_fix; g_bal } ))
         loads)
  in
  let table =
    Texttable.create
      ~title:
        "F.greedy  --  balls-into-bins greedy heuristics vs the matching \
         strategies (n=8, d=4; 'lat' = mean service latency in rounds)"
      ~header:
        [ "load"; "optimum";
          "2choice"; "lat";
          "random"; "lat";
          "firstfit"; "lat";
          "A_fix"; "A_balance" ]
      ()
  in
  let checks = ref [] in
  List.iter2
    (fun load r ->
       let (two, two_lat), (rnd, rnd_lat), (ff, ff_lat) = (r.two, r.rnd, r.ff) in
       let lat = Texttable.cell_float ~decimals:2 in
       Texttable.add_row table
         [
           Printf.sprintf "%.1f" load;
           pi r.g_opt;
           pi two; lat two_lat;
           pi rnd; lat rnd_lat;
           pi ff; lat ff_lat;
           pi r.g_fix;
           pi r.g_bal;
         ];
       checks :=
         (Printf.sprintf "two-choice beats random choice at load %.1f" load,
          two >= rnd)
         :: (Printf.sprintf "matching beats greedy at load %.1f" load,
             r.g_bal >= two && r.g_fix >= rnd)
         :: (Printf.sprintf "optimum dominates everything at load %.1f" load,
             r.g_opt >= r.g_bal && r.g_opt >= two && r.g_opt >= ff)
         :: !checks)
    loads rows;
  {
    id = "F.greedy";
    title = "Extension: greedy baselines";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Failure injection: local protocols on a lossy network *)

let loss_robustness ?domains ~quick () =
  let rounds = if quick then 80 else 250 in
  let losses =
    if quick then [ 0.0; 0.1; 0.3 ] else [ 0.0; 0.05; 0.1; 0.2; 0.4 ]
  in
  let inst =
    let rng = Rng.create ~seed:95 in
    Adversary.Random_workload.make ~rng ~n:6 ~d:4 ~rounds ~load:1.1 ()
  in
  let opt = Offline.Opt.value inst in
  (* (local_fix served, local_eager served, both consistent) per loss *)
  let results =
    jobs ?domains ~family:"A.loss"
      (List.map
         (fun loss ->
            ( Printf.sprintf "loss=%.2f" loss,
              fun () ->
                let fix = Sched.Engine.run inst (Local.fix ~loss ()) in
                let eager = Sched.Engine.run inst (Local.eager ~loss ()) in
                ( fix.Sched.Outcome.served,
                  eager.Sched.Outcome.served,
                  Sched.Outcome.is_consistent fix
                  && Sched.Outcome.is_consistent eager ) ))
         losses)
  in
  let table =
    Texttable.create
      ~title:
        "A.loss  --  local protocols under message loss (n=6, d=4, load \
         1.1; drops behave like mailbox bounces)"
      ~header:
        [ "loss"; "A_local_fix served"; "A_local_eager served"; "optimum" ]
      ()
  in
  let checks = ref [] in
  List.iter2
    (fun loss (fix, eager, consistent) ->
       Texttable.add_row table
         [ Printf.sprintf "%.2f" loss; pi fix; pi eager; pi opt ];
       checks :=
         ( Printf.sprintf "outcomes stay consistent at loss %.2f" loss,
           consistent )
         :: !checks)
    losses results;
  (match (results, List.rev results) with
   | (fix0, eager0, _) :: _, (fix_worst, eager_worst, _) :: _ ->
     checks :=
       ("loss degrades local_fix", fix0 >= fix_worst)
       :: ("loss degrades local_eager", eager0 >= eager_worst)
       :: ( "eager's redundancy absorbs loss better than fix",
            eager_worst * fix0 >= fix_worst * eager0 * 9 / 10 )
       :: !checks
   | _ -> ());
  {
    id = "A.loss";
    title = "Failure injection: lossy network";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Extension: replica placement under session traffic *)

let placement_policies ?domains ~quick () =
  let rounds = if quick then 120 else 400 in
  let disks = 10 and items = 200 and d = 4 in
  let zipf = 1.2 in
  let popularity i = 1.0 /. Float.pow (float_of_int (i + 1)) zipf in
  let policies =
    [
      ( "random [Kor97]", "random",
        Dataserver.Placement.random
          ~rng:(Rng.create ~seed:91) ~disks ~items ~copies:2 );
      ( "chained (partner)", "chained",
        Dataserver.Placement.partner ~disks ~items ~copies:2 );
      ( "striped mirrors", "striped",
        Dataserver.Placement.striped ~disks ~items ~copies:2 );
    ]
  in
  (* (load spread, run) per policy *)
  let results =
    jobs ?domains ~family:"F.placement"
      (List.map
         (fun (_, jname, placement) ->
            ( jname,
              fun () ->
                let rng = Rng.create ~seed:92 in
                let inst, _stats =
                  Dataserver.Trace.sessions ~rng ~placement ~rounds
                    ~arrivals_per_round:1.6 ~mean_length:7 ~d ~zipf ()
                in
                ( Dataserver.Placement.load_spread placement ~popularity,
                  Harness.run_instance inst (Global.balance ()) ) ))
         policies)
  in
  let table =
    Texttable.create
      ~title:
        (Printf.sprintf
           "F.placement  --  replica placement under continuous-media \
            sessions (disks=%d, items=%d, Zipf %.1f, A_balance)"
           disks items zipf)
      ~header:
        [ "placement"; "load spread"; "accepted"; "optimum"; "ratio";
          "lost %%" ]
      ()
  in
  let checks = ref [] in
  List.iter2
    (fun (name, _, _) (spread, (r : Harness.run)) ->
       let served = r.outcome.Sched.Outcome.served in
       let total = Sched.Instance.n_requests r.outcome.Sched.Outcome.instance in
       Texttable.add_row table
         [
           name;
           Texttable.cell_float ~decimals:3 spread;
           pi served;
           pi r.opt;
           Harness.float_cell r.ratio;
           (if total > 0 then
              Printf.sprintf "%.2f"
                (100.0 *. float_of_int (total - served) /. float_of_int total)
            else "?");
         ];
       checks :=
         ( Printf.sprintf "%s placement: scheduler tracks its optimum" name,
           r.ratio <= 1.1 )
         :: !checks)
    policies results;
  (* random duplicated assignment must beat the chained layout, whose
     copies of consecutive (hence similarly hot) items share disks;
     carefully hand-tuned striping can match random on a fixed skew,
     but it has no such guarantee under catalogue churn *)
  (match results with
   | (spread_random, _) :: (spread_chained, _) :: _ ->
     checks :=
       ( "random placement spreads load better than chained",
         spread_random <= spread_chained +. 0.05 )
       :: !checks
   | _ -> ());
  {
    id = "F.placement";
    title = "Extension: replica placement policies";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Extension: per-request deadlines *)

let mixed_deadlines ?domains ~quick () =
  let rounds = if quick then 60 else 200 in
  let single_seeds = [ 71; 72 ] in
  let struct_cases =
    [
      ("A_fix", (fun () -> Global.fix ()), 1);
      ("A_fix_balance", (fun () -> Global.fix_balance ()), 1);
      ("A_eager", (fun () -> Global.eager ()), 2);
      ("A_balance", (fun () -> Global.balance ()), 2);
      ("A_local_fix", (fun () -> Local.fix ()), 1);
    ]
  in
  (* (check passed, ratio) per case *)
  let singles, structs =
    split_at (List.length single_seeds)
      (jobs ?domains ~family:"E.mixed"
         (List.map
            (fun seed ->
               ( Printf.sprintf "edf/seed=%d" seed,
                 fun () ->
                   let rng = Rng.create ~seed in
                   let inst =
                     Adversary.Random_workload.make_mixed_deadlines ~rng ~n:5
                       ~d:4 ~rounds ~load:1.1 ~alternatives:1 ()
                   in
                   let r = Harness.run_instance inst (Edf.independent ()) in
                   ( r.Harness.outcome.Sched.Outcome.served = r.Harness.opt
                     && Offline.Opt.single_alternative_edf inst
                        = r.Harness.opt,
                     r.Harness.ratio ) ))
            single_seeds
          @ List.map
              (fun (name, mk, forbidden) ->
                 ( "struct/" ^ name,
                   fun () ->
                     let rng = Rng.create ~seed:73 in
                     let inst =
                       Adversary.Random_workload.make_mixed_deadlines ~rng
                         ~n:5 ~d:4 ~rounds ~load:1.2 ()
                     in
                     let r = Harness.run_instance inst (mk ()) in
                     ( Sched.Outcome.is_consistent r.Harness.outcome
                       && not
                            (Analysis.Audit.has_augmenting_of_order
                               r.Harness.outcome ~order:forbidden),
                       r.Harness.ratio ) ))
              struct_cases))
  in
  let table =
    Texttable.create
      ~title:
        "E.mixed  --  heterogeneous deadlines (1..d per request): EDF stays \
         optimal with one alternative; all strategies stay sane with two"
      ~header:[ "case"; "paper"; "measured"; "match" ] ()
  in
  let checks = ref [] in
  List.iter2
    (fun seed (ok, ratio) ->
       Texttable.add_row table
         [
           Printf.sprintf "EDF c=1 mixed deadlines (seed %d)" seed;
           "1";
           Harness.float_cell ratio;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "EDF optimal with mixed deadlines (seed %d)" seed, ok)
         :: !checks)
    single_seeds singles;
  List.iter2
    (fun (name, _, forbidden) (ok, ratio) ->
       Texttable.add_row table
         [
           Printf.sprintf "%s c=2 mixed deadlines" name;
           Printf.sprintf "no order-%d path" forbidden;
           Harness.float_cell ratio;
           yes_no ok;
         ];
       checks :=
         (Printf.sprintf "%s handles mixed deadlines" name, ok) :: !checks)
    struct_cases structs;
  {
    id = "E.mixed";
    title = "Extension: per-request deadlines";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)
(* Table 1 summary - the golden snapshot *)

(* A compact measured-vs-paper-bound recap of Table 1 at canonical
   parameters, built from the per-family jobs; the rendered quick form
   is pinned byte-for-byte by the golden test, which is how ratio
   regressions fail loudly in `dune runtest`. *)
let table1_summary ?domains ~quick () =
  let one ~family job = List.hd (jobs ?domains ~family [ job ]) in
  let lb_k = if quick then 3 else 8 in
  let fb_k = if quick then 3 else 6 in
  let bal_intervals = if quick then 4 else 8 in
  let any_phases = if quick then 4 else 8 in
  let fix_r = one ~family:"T1.fix.lb" (fix_lb_job ~d:4 ~k:lb_k) in
  let current_r = one ~family:"T1.current.lb" (current_lb_job ~ell:3 ~d:6) in
  let fixbal_r = one ~family:"T1.fixbal.lb" (fixbal_lb_job ~d:4 ~k:fb_k) in
  let eager_r = one ~family:"T1.eager.lb" (eager_lb_job ~d:4 ~k:fb_k) in
  let bal_r =
    one ~family:"T1.bal.lb"
      (bal_lb_job ~d:5 ~groups:2 ~intervals:bal_intervals)
  in
  let any_rs =
    jobs ?domains ~family:"T1.any.lb"
      (List.map
         (fun (name, mk) -> any_lb_job ~d:3 ~phases:any_phases ~name ~mk)
         Global.all)
  in
  let ub_d = 4 in
  let runs = battery ~quick ~d:ub_d in
  let ubs =
    List.map
      (fun (name, mk, ub, forbidden_order) ->
         let worst, audit_ok =
           ub_measure ?domains ~d:ub_d ~name ~mk ~forbidden_order runs
         in
         (name, ub, worst, audit_ok))
      (ub_strategies ~d:ub_d)
  in
  let table =
    Texttable.create
      ~title:
        "T1.summary  --  Table 1 at canonical parameters: measured vs paper \
         bound"
      ~header:[ "row"; "paper bound"; "measured"; "ok" ] ()
  in
  let checks = ref [] in
  let lb_row label bound r =
    let ok = Rat.equal r bound in
    Texttable.add_row table
      [ label; Harness.rat_cell bound; Harness.rat_cell r; yes_no ok ];
    checks := (label ^ " matches", ok) :: !checks
  in
  lb_row "A_fix LB (d=4)" (Analysis.Bounds.fix_lb ~d:4) fix_r;
  (let reference =
     let alg = Adversary.Thm22.alg_lower_bound_per_phase ~ell:3 ~d:6 in
     float_of_int (3 * 6) /. float_of_int alg
   in
   let ok = close ~tol:0.05 current_r reference in
   Texttable.add_row table
     [
       "A_current LB (ell=3,d=6)";
       Harness.float_cell reference;
       Harness.float_cell current_r;
       yes_no ok;
     ];
   checks := ("A_current LB (ell=3,d=6) matches", ok) :: !checks);
  lb_row "A_fix_balance LB (d=4)" (Analysis.Bounds.fix_balance_lb ~d:4)
    fixbal_r;
  lb_row "A_eager LB (d=4)" (Rat.make 4 3) eager_r;
  (let x = 2 in
   let expect =
     float_of_int ((2 * ((5 * x) - 1)) + (4 * x))
     /. float_of_int ((2 * ((4 * x) - 1)) + (4 * x))
   in
   let ok = close ~tol:0.02 bal_r expect in
   Texttable.add_row table
     [
       "A_balance LB (d=5,groups=2)";
       Harness.float_cell expect;
       Harness.float_cell bal_r;
       yes_no ok;
     ];
   checks := ("A_balance LB (d=5,groups=2) matches", ok) :: !checks);
  (let bound = Analysis.Bounds.universal_lb_finite ~d:3 in
   let worst_strategy = List.fold_left Float.min infinity any_rs in
   let ok = worst_strategy >= Rat.to_float bound -. 1e-9 in
   Texttable.add_row table
     [
       "universal LB (d=3, min over strategies)";
       Harness.rat_cell bound;
       Harness.float_cell worst_strategy;
       yes_no ok;
     ];
   checks := ("universal LB (d=3) holds", ok) :: !checks);
  List.iter
    (fun (name, ub, worst, audit_ok) ->
       let ok = worst <= Rat.to_float ub +. 1e-9 && audit_ok in
       Texttable.add_row table
         [
           Printf.sprintf "%s UB (d=%d, battery worst)" name ub_d;
           Harness.rat_cell ub;
           Harness.float_cell worst;
           yes_no ok;
         ];
       checks := (Printf.sprintf "%s UB (d=%d) holds" name ub_d, ok) :: !checks)
    ubs;
  {
    id = "T1.summary";
    title = "Table 1 summary (golden snapshot)";
    table;
    checks = List.rev !checks;
  }

(* ------------------------------------------------------------------ *)

let catalog =
  [
    ("T1.fix.lb", t1_fix_lb);
    ("T1.current.lb", t1_current_lb);
    ("T1.fixbal.lb", t1_fixbal_lb);
    ("T1.eager.lb", t1_eager_lb);
    ("T1.bal.lb", t1_bal_lb);
    ("T1.any.lb", t1_any_lb);
    ("T1.ub", t1_upper_bounds);
    ("T1.summary", table1_summary);
    ("E.edf", edf_baselines);
    ("E.local", local_strategies);
    ("F.ratio-vs-d", series_ratio_vs_d);
    ("F.avgcase", series_average_case);
    ("A.bias", ablation_bias);
    ("A.keep", ablation_keep);
    ("F.choices", power_of_choices);
    ("F.greedy", greedy_baselines);
    ("F.placement", placement_policies);
    ("A.loss", loss_robustness);
    ("E.mixed", mixed_deadlines);
  ]

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Texttable.render t.table);
  List.iter
    (fun (name, ok) ->
       Buffer.add_string buf
         (Printf.sprintf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name))
    t.checks;
  Buffer.add_char buf '\n';
  Buffer.contents buf
