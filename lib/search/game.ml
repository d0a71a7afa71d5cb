module Global = Strategies.Global

type strategy = {
  name : string;
  key : string;
  build :
    solver:Global.solver -> bias:Sched.Strategy.bias -> Sched.Strategy.factory;
}

let strategies =
  [
    { name = "A_fix"; key = "fix";
      build = (fun ~solver ~bias -> Global.fix ~solver ~bias ()) };
    { name = "A_current"; key = "current";
      build = (fun ~solver ~bias -> Global.current ~solver ~bias ()) };
    { name = "A_fix_balance"; key = "fix_balance";
      build = (fun ~solver ~bias -> Global.fix_balance ~solver ~bias ()) };
    { name = "A_eager"; key = "eager";
      build = (fun ~solver ~bias -> Global.eager ~solver ~bias ()) };
    { name = "A_balance"; key = "balance";
      build = (fun ~solver ~bias -> Global.balance ~solver ~bias ()) };
  ]

let strategy_of_name s =
  match
    List.find_opt (fun st -> String.equal st.key s || String.equal st.name s)
      strategies
  with
  | Some st -> Ok st
  | None ->
    Error
      (Printf.sprintf "unknown strategy %S (expected one of %s)" s
         (String.concat ", " (List.map (fun st -> st.key) strategies)))

type prefix = Move.rtype list list

let size prefix =
  List.fold_left (fun acc row -> acc + List.length row) 0 prefix

let drain_round prefix =
  let drain = ref 0 in
  List.iteri
    (fun t row ->
       List.iter
         (fun (rt : Move.rtype) -> drain := max !drain (t + rt.Move.deadline))
         row)
    prefix;
  !drain

let realise ~n ~d prefix =
  let protos = ref [] and tags = ref [] in
  List.iteri
    (fun t row ->
       List.iter
         (fun (rt : Move.rtype) ->
            protos :=
              Sched.Request.make ~arrival:t
                ~alternatives:(Array.to_list rt.Move.alts)
                ~deadline:rt.Move.deadline
              :: !protos;
            tags := rt.Move.tag :: !tags)
         row)
    prefix;
  let inst = Sched.Instance.build ~n_resources:n ~d (List.rev !protos) in
  (inst, Array.of_list (List.rev !tags))

type eval = {
  opt : int;
  alg : int;
  ratio : Prelude.Rat.t;
  agree : bool;
}

let same_schedule (a : Sched.Outcome.t) (b : Sched.Outcome.t) =
  let n = Array.length a.Sched.Outcome.served_at in
  n = Array.length b.Sched.Outcome.served_at
  &&
  (let ok = ref true in
   for i = 0 to n - 1 do
     (match a.Sched.Outcome.served_at.(i), b.Sched.Outcome.served_at.(i) with
      | None, None -> ()
      | Some (r1, t1), Some (r2, t2) when r1 = r2 && t1 = t2 -> ()
      | _ -> ok := false)
   done;
   !ok)

let evaluate_instance ?metrics strat inst tags =
  let m = Obs.Metrics.resolve metrics in
  let t0 = Obs.Span.start () in
  let bias = Move.bias_of_tags tags in
  let kernel =
    Sched.Engine.run inst (strat.build ~solver:Global.Kernel ~bias)
  in
  let rebuild =
    Sched.Engine.run inst (strat.build ~solver:Global.Rebuild ~bias)
  in
  let agree = same_schedule kernel rebuild in
  let opt = Offline.Opt.value inst in
  let alg = kernel.Sched.Outcome.served in
  let ratio =
    if alg > 0 then Prelude.Rat.make opt alg else Prelude.Rat.make 0 1
  in
  (match m with
   | None -> ()
   | Some m ->
     Obs.Metrics.incr m "search.evals";
     Obs.Metrics.observe m "search.eval_us" (Obs.Span.elapsed t0 *. 1e6);
     if not agree then Obs.Metrics.incr m "search.disagreements");
  { opt; alg; ratio; agree }

let evaluate ?metrics strat ~n ~d prefix =
  let inst, tags = realise ~n ~d prefix in
  evaluate_instance ?metrics strat inst tags

(* All permutations of [0..n-1], deterministic order. *)
let permutations n =
  let rec insert_all x = function
    | [] -> [ [ x ] ]
    | y :: rest as l ->
      (x :: l) :: List.map (fun r -> y :: r) (insert_all x rest)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: rest -> List.concat_map (insert_all x) (perms rest)
  in
  perms (List.init n (fun i -> i)) |> List.map Array.of_list

let encode_with perm prefix =
  prefix
  |> List.map (fun row ->
    row
    |> List.map (Move.relabel ~perm)
    |> List.sort Move.compare_rtype
    |> List.map Move.encode
    |> String.concat ";")
  |> String.concat "|"

let canonical_key ~n prefix =
  if n < 1 then invalid_arg "Game.canonical_key: n < 1";
  if n > 6 then encode_with (Array.init n (fun i -> i)) prefix
  else
    List.fold_left
      (fun best perm ->
         let s = encode_with perm prefix in
         match best with
         | None -> Some s
         | Some b -> Some (if String.compare s b < 0 then s else b))
      None (permutations n)
    |> Option.get
