let strategy_names =
  [
    "fix"; "current"; "fix_balance"; "eager"; "balance"; "edf"; "edf_coord";
    "local_fix"; "local_eager"; "greedy_2choice"; "greedy_random";
    "greedy_firstfit";
  ]

let factory_of_name ~seed ?metrics name =
  match name with
  | "fix" -> Ok (Strategies.Global.fix ?metrics ())
  | "current" -> Ok (Strategies.Global.current ?metrics ())
  | "fix_balance" -> Ok (Strategies.Global.fix_balance ?metrics ())
  | "eager" -> Ok (Strategies.Global.eager ?metrics ())
  | "balance" -> Ok (Strategies.Global.balance ?metrics ())
  | "edf" -> Ok (Strategies.Edf.independent ())
  | "edf_coord" -> Ok (Strategies.Edf.coordinated ())
  | "local_fix" -> Ok (Localstrat.Local.fix ?metrics ())
  | "local_eager" -> Ok (Localstrat.Local.eager ?metrics ())
  | "greedy_2choice" -> Ok (Strategies.Twochoice.least_loaded ())
  | "greedy_random" ->
    (* split so the strategy's coin stream is independent of a workload
       generated from the same CLI seed *)
    Ok
      (Strategies.Twochoice.random_choice
         ~rng:(Prelude.Rng.split (Prelude.Rng.create ~seed)) ())
  | "greedy_firstfit" -> Ok (Strategies.Twochoice.first_fit ())
  | other -> Error (Printf.sprintf "unknown strategy %S" other)

(* A workload either fixes its own scenario (theorem adversaries) or is
   generated from the CLI's size parameters. *)
let instance_of_workload ~name ~n ~d ~rounds ~load ~seed =
  let rng = Prelude.Rng.create ~seed in
  let random profile =
    Ok
      (Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load ?profile ())
  in
  let phases = max 1 (rounds / max 1 d) in
  (* every generator validates its own parameters; its message is the
     error *)
  try
    match name with
    | "uniform" -> random None
    | "zipf" -> random (Some (Adversary.Random_workload.Zipf 1.2))
    | "bursty" ->
      random
        (Some
           (Adversary.Random_workload.Bursty
              { period = 20; duty = 0.3; peak = 2.5 }))
    | "thm21" -> Ok (Adversary.Thm21.make ~d ~phases).instance
    | "thm22" -> Ok (Adversary.Thm22.make ~ell:4 ~d ~phases).instance
    | "thm23" -> Ok (Adversary.Thm23.make ~d ~phases).instance
    | "thm24" -> Ok (Adversary.Thm24.make ~d ~phases).instance
    | "thm25" ->
      Ok (Adversary.Thm25.make ~d ~groups:3 ~intervals:phases).instance
    | "thm37" -> Ok (fst (Adversary.Thm37.make ~d ~intervals:phases)).instance
    | other when List.mem other Workload.Zoo.names ->
      Workload.Zoo.generate ~name:other ~n ~d ~rounds ~load ~seed
    | other -> Error (Printf.sprintf "unknown workload %S" other)
  with Invalid_argument m -> Error m

let workload_names =
  [
    "uniform"; "zipf"; "bursty"; "thm21"; "thm22"; "thm23"; "thm24"; "thm25";
    "thm37";
  ]
  @ Workload.Zoo.names
