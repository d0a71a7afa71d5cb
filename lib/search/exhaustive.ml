module Rat = Prelude.Rat

type config = {
  n : int;
  d : int;
  budget : int;
  per_round : int;
  k : int;
  deadlines : int list;
  tags : Move.tag list;
}

let config ?(budget = 4) ?(per_round = 4) ?k ?deadlines ?tags ~n ~d () =
  let k = match k with Some k -> k | None -> min 2 n in
  let deadlines = match deadlines with Some ds -> ds | None -> [ d ] in
  let tags =
    match tags with
    | Some ts -> ts
    | None ->
      [ Move.Neutral; Move.Late; Move.Early ]
      @ List.init n (fun r -> Move.Prefer r)
  in
  { n; d; budget; per_round; k; deadlines; tags }

let validate cfg =
  let fail fmt = Printf.ksprintf invalid_arg ("Exhaustive.run: " ^^ fmt) in
  if cfg.n < 1 || cfg.n > 4 then fail "n must be in 1..4 (got %d)" cfg.n;
  if cfg.d < 1 || cfg.d > 3 then fail "d must be in 1..3 (got %d)" cfg.d;
  if cfg.budget < 1 || cfg.budget > 6 then
    fail "budget must be in 1..6 (got %d); use the guided tier beyond" cfg.budget;
  if cfg.per_round < 1 then fail "per_round must be >= 1";
  if cfg.k < 1 || cfg.k > 2 then fail "k must be in 1..2 (got %d)" cfg.k;
  if cfg.deadlines = [] then fail "empty deadline palette";
  List.iter
    (fun dl ->
       if dl < 1 || dl > cfg.d then
         fail "palette deadline %d outside 1..%d" dl cfg.d)
    cfg.deadlines;
  if cfg.tags = [] then fail "empty tag palette";
  List.iter
    (function
      | Move.Prefer r when r < 0 || r >= cfg.n ->
        fail "Prefer %d names a resource >= n" r
      | _ -> ())
    cfg.tags

let check cfg =
  match validate cfg with () -> Ok () | exception Invalid_argument m -> Error m

type found = {
  ratio : Rat.t;
  opt : int;
  alg : int;
  prefix : Game.prefix;
}

type result = {
  strategy : Game.strategy;
  cfg : config;
  best : found option;
  nodes : int;
  transpositions : int;
  disagreements : Game.prefix list;
}

let extend prefix t ms =
  let len = List.length prefix in
  prefix @ List.init (t - len) (fun _ -> []) @ [ ms ]

let run ?metrics ~strategy cfg =
  validate cfg;
  let m = Obs.Metrics.resolve metrics in
  let types =
    Move.types ~n:cfg.n ~k:cfg.k ~deadlines:cfg.deadlines ~tags:cfg.tags
  in
  let max_room = min cfg.per_round cfg.budget in
  (* moves.(room) = injectable multisets given [room] remaining budget;
     prefix-stable in [room] (Move.multisets), so growing the budget
     only appends children — the monotonicity the tests pin. *)
  let moves =
    Array.init (max_room + 1) (fun s ->
      if s = 0 then [] else Move.multisets types ~max:s)
  in
  let seen = Hashtbl.create 4096 in
  let nodes = ref 0 and transpositions = ref 0 in
  let best = ref None and disagreements = ref [] in
  let consider prefix (e : Game.eval) =
    if e.Game.alg > 0 then begin
      let better =
        match !best with
        | None -> true
        | Some b -> Rat.compare e.Game.ratio b.ratio > 0
      in
      if better then
        best :=
          Some
            { ratio = e.Game.ratio; opt = e.Game.opt; alg = e.Game.alg;
              prefix }
    end;
    if not e.Game.agree then disagreements := prefix :: !disagreements
  in
  let rec explore prefix used last =
    let room = min cfg.per_round (cfg.budget - used) in
    if room > 0 then begin
      (* Injections strictly before the drain stay inside this phase;
         at or after it they would start an independent one. *)
      let starts =
        if used = 0 then [ 0 ]
        else begin
          let drain = Game.drain_round prefix in
          List.init (max 0 (drain - last - 1)) (fun i -> last + 1 + i)
        end
      in
      List.iter
        (fun t ->
           List.iter
             (fun ms ->
                let child = extend prefix t ms in
                let key = Game.canonical_key ~n:cfg.n child in
                if Hashtbl.mem seen key then incr transpositions
                else begin
                  Hashtbl.add seen key ();
                  incr nodes;
                  let e = Game.evaluate ?metrics strategy ~n:cfg.n ~d:cfg.d
                            child in
                  consider child e;
                  explore child (used + List.length ms) t
                end)
             moves.(room))
        starts
    end
  in
  explore [] 0 (-1);
  (match m with
   | None -> ()
   | Some m ->
     Obs.Metrics.incr ~by:!nodes m "search.nodes";
     Obs.Metrics.incr ~by:!transpositions m "search.transpositions");
  { strategy; cfg; best = !best; nodes = !nodes;
    transpositions = !transpositions;
    disagreements = List.rev !disagreements }

let certificate r =
  Option.map
    (fun f ->
       Certificate.of_prefix ~strategy:r.strategy ~n:r.cfg.n ~d:r.cfg.d
         ~opt:f.opt ~alg:f.alg f.prefix)
    r.best

let table1_row ~d name =
  if d < 2 then (None, None)
  else
    Analysis.Bounds.table1 ~d
    |> List.find_map (fun (row, lb, ub) ->
      if String.equal row name then Some (lb, ub) else None)
    |> Option.value ~default:(None, None)

let table1_lb ~d name = fst (table1_row ~d name)

let one = Rat.make 1 1

let above_ub ~ub ratio =
  match ub with Some ub -> Rat.compare ratio ub > 0 | None -> false

let verdict ~d ~strategy_name ratio =
  let lb, ub = table1_row ~d strategy_name in
  let ub_s =
    match ub with Some u -> Rat.to_string u | None -> "-"
  in
  if above_ub ~ub ratio then
    (* a ratio beyond the proven upper bound is impossible; since the
       certificate replay already confirmed it, the transcription of
       either the strategy or the bound must be wrong *)
    Printf.sprintf
      "EXCEEDS Table-1 upper bound %s -- impossible, investigate" ub_s
  else
    match lb with
    | Some lb ->
      let c = Rat.compare ratio lb in
      if c = 0 then
        Printf.sprintf "rediscovered Table-1 lower bound exactly (lb %s)"
          (Rat.to_string lb)
      else if c < 0 then
        Printf.sprintf
          "below Table-1 bound %s (search horizon too small at this budget)"
          (Rat.to_string lb)
      else
        Printf.sprintf
          "improves on the published Table-1 lower bound at this \
           configuration (lb %s, ub %s)"
          (Rat.to_string lb) ub_s
    | None ->
      if d = 1 then
        if Rat.compare ratio one = 0 then
          "matches the trivial d=1 bound (every strategy is per-round optimal)"
        else "unexpected ratio at d=1 (expected exactly 1)"
      else
        Printf.sprintf "no Table-1 lower bound at d=%d (found %s, ub %s)" d
          (Rat.to_string ratio) ub_s

let verdict_cell ~d ~strategy_name ratio =
  let lb, ub = table1_row ~d strategy_name in
  if above_ub ~ub ratio then "> UB !"
  else
    match lb with
    | Some lb ->
      let c = Rat.compare ratio lb in
      if c = 0 then "= lb" else if c < 0 then "< lb" else "> lb"
    | None ->
      if d = 1 then
        if Rat.compare ratio one = 0 then "= 1 (trivial)" else "<> 1 !"
      else "no lb"

let golden_table ?budget ~n ~ds () =
  let table =
    Prelude.Texttable.create
      ~title:(Printf.sprintf "exhaustive worst-case search (n=%d)" n)
      ~header:
        [ "strategy"; "d"; "found"; "opt/alg"; "lb"; "nodes"; "transp";
          "disagree"; "status" ]
      ()
  in
  Prelude.Texttable.set_align table
    [ Prelude.Texttable.Left; Prelude.Texttable.Right;
      Prelude.Texttable.Right; Prelude.Texttable.Right;
      Prelude.Texttable.Right; Prelude.Texttable.Right;
      Prelude.Texttable.Right; Prelude.Texttable.Right ];
  List.iteri
    (fun i d ->
       if i > 0 then Prelude.Texttable.add_rule table;
       List.iter
         (fun strat ->
            let cfg = config ?budget ~n ~d () in
            let r = run ~strategy:strat cfg in
            let found, witness, status =
              match r.best with
              | None -> ("-", "-", "empty tree")
              | Some f ->
                ( Rat.to_string f.ratio,
                  Printf.sprintf "%d/%d" f.opt f.alg,
                  verdict_cell ~d ~strategy_name:strat.Game.name f.ratio )
            in
            let lb =
              match table1_lb ~d strat.Game.name with
              | Some lb -> Rat.to_string lb
              | None -> if d = 1 then "1" else "-"
            in
            Prelude.Texttable.add_row table
              [ strat.Game.name; string_of_int d; found; witness; lb;
                string_of_int r.nodes; string_of_int r.transpositions;
                string_of_int (List.length r.disagreements); status ])
         Game.strategies)
    ds;
  Prelude.Texttable.render table
