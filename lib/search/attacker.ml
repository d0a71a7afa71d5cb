module Rat = Prelude.Rat
module Rng = Prelude.Rng

type config = {
  n : int;
  d : int;
  seed : int;
  restarts : int;
  evals : int;
  phases : int;
  max_genes : int;
}

let config ?(seed = 1) ?(restarts = 8) ?(evals = 60) ?(phases = 2)
      ?(max_genes = 6) ~n ~d () =
  { n; d; seed; restarts; evals; phases; max_genes }

let validate cfg =
  let fail fmt = Printf.ksprintf invalid_arg ("Attacker.run: " ^^ fmt) in
  if cfg.n < 1 then fail "n must be >= 1";
  if cfg.d < 1 then fail "d must be >= 1";
  if cfg.restarts < 1 then fail "restarts must be >= 1";
  if cfg.evals < 1 then fail "evals must be >= 1";
  if cfg.phases < 1 then fail "phases must be >= 1";
  if cfg.max_genes < 1 then fail "max_genes must be >= 1"

(* A gene is a block of [count] identical requests at a fixed offset
   inside the (prelude or phase) period -- the thm2x building block. *)
type gene = {
  offset : int;
  alts : int array;
  count : int;
  tag : Move.tag;
}

type genome = {
  period : int;       (* phase length, rounds *)
  prelude : gene list;  (* offsets in [0, d) *)
  phase : gene list;    (* offsets in [0, period) *)
}

let random_alts rng ~n =
  if n >= 2 && Rng.bool rng then begin
    let a = Rng.int rng n in
    let b = (a + 1 + Rng.int rng (n - 1)) mod n in
    [| a; b |]
  end
  else [| Rng.int rng n |]

let random_tag rng ~n =
  match Rng.int rng 4 with
  | 0 -> Move.Neutral
  | 1 -> Move.Late
  | 2 -> Move.Early
  | _ -> Move.Prefer (Rng.int rng n)

let random_gene rng cfg ~span =
  {
    offset = Rng.int rng span;
    alts = random_alts rng ~n:cfg.n;
    count = 1 + Rng.int rng cfg.d;
    tag = random_tag rng ~n:cfg.n;
  }

let random_genome rng cfg =
  let period = Rng.int_in rng 1 (2 * cfg.d) in
  let phase =
    List.init (1 + Rng.int rng (min 3 cfg.max_genes))
      (fun _ -> random_gene rng cfg ~span:period)
  in
  let prelude =
    List.init (Rng.int rng 2) (fun _ -> random_gene rng cfg ~span:cfg.d)
  in
  { period; prelude; phase }

let clamp_offsets span genes =
  List.map (fun g -> { g with offset = g.offset mod span }) genes

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

let mutate_gene rng cfg ~span g =
  match Rng.int rng 4 with
  | 0 -> { g with offset = Rng.int rng span }
  | 1 -> { g with alts = random_alts rng ~n:cfg.n }
  | 2 -> { g with count = 1 + Rng.int rng cfg.d }
  | _ -> { g with tag = random_tag rng ~n:cfg.n }

let mutate rng cfg g =
  match Rng.int rng 6 with
  | 0 ->
    let period =
      let p = g.period + (if Rng.bool rng then 1 else -1) in
      max 1 (min (2 * cfg.d) p)
    in
    { g with period; phase = clamp_offsets period g.phase }
  | 1 when List.length g.phase < cfg.max_genes ->
    { g with phase = random_gene rng cfg ~span:g.period :: g.phase }
  | 2 when List.length g.phase > 1 ->
    let i = Rng.int rng (List.length g.phase) in
    { g with phase = List.filteri (fun j _ -> j <> i) g.phase }
  | 3 ->
    if g.prelude = [] then
      { g with prelude = [ random_gene rng cfg ~span:cfg.d ] }
    else if Rng.bool rng then { g with prelude = [] }
    else
      let i = Rng.int rng (List.length g.prelude) in
      { g with
        prelude =
          replace_nth g.prelude i
            (mutate_gene rng cfg ~span:cfg.d (List.nth g.prelude i)) }
  | _ ->
    let i = Rng.int rng (List.length g.phase) in
    { g with
      phase =
        replace_nth g.phase i
          (mutate_gene rng cfg ~span:g.period (List.nth g.phase i)) }

let realise cfg g ~phases =
  let items = ref [] in
  let emit round gene =
    let rt =
      Move.rtype ~alts:(Array.to_list gene.alts) ~deadline:cfg.d
        ~tag:gene.tag
    in
    for _ = 1 to gene.count do items := (round, rt) :: !items done
  in
  List.iter (fun ge -> emit ge.offset ge) g.prelude;
  for p = 0 to phases - 1 do
    List.iter (fun ge -> emit (cfg.d + (p * g.period) + ge.offset) ge)
      g.phase
  done;
  let items =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.rev !items)
  in
  let protos =
    List.map
      (fun (round, (rt : Move.rtype)) ->
         Sched.Request.make ~arrival:round
           ~alternatives:(Array.to_list rt.Move.alts)
           ~deadline:rt.Move.deadline)
      items
  in
  let inst = Sched.Instance.build ~n_resources:cfg.n ~d:cfg.d protos in
  let tags =
    Array.of_list (List.map (fun (_, rt) -> rt.Move.tag) items)
  in
  (inst, tags)

type scored = {
  rate : Rat.t;
  cert : Certificate.t option;
  dis : Certificate.t list;
}

let score cfg (strategy : Game.strategy) g =
  let check ~phases =
    let inst, tags = realise cfg g ~phases in
    let e = Game.evaluate_instance strategy inst tags in
    let dis =
      if e.Game.agree then []
      else
        [ Certificate.v ~strategy:strategy.Game.name ~opt:e.Game.opt
            ~alg:(max e.Game.alg 1) ~tags inst ]
    in
    (e, inst, tags, dis)
  in
  let e1, _, _, dis1 = check ~phases:cfg.phases in
  let e2, i2, t2, dis2 = check ~phases:(2 * cfg.phases) in
  let dopt = e2.Game.opt - e1.Game.opt
  and dalg = e2.Game.alg - e1.Game.alg in
  let rate =
    if dalg > 0 && dopt > 0 then Rat.make dopt dalg
    else if e2.Game.alg > 0 then e2.Game.ratio
    else Rat.make 0 1
  in
  let cert =
    if e2.Game.alg > 0 then
      Some
        (Certificate.v ~strategy:strategy.Game.name ~opt:e2.Game.opt
           ~alg:e2.Game.alg ~tags:t2 i2)
    else None
  in
  { rate; cert; dis = dis1 @ dis2 }

type single = {
  s_rate : Rat.t;
  s_cert : Certificate.t option;
  s_instances : int;
  s_evals : int;
  s_accepts : int;
  s_dis : Certificate.t list;
}

let restart cfg strategy ~seed =
  let rng = Rng.create ~seed in
  let instances = ref 0 and evals = ref 0 and accepts = ref 0 in
  let dis = ref [] in
  let eval g =
    let s = score cfg strategy g in
    instances := !instances + 2;
    incr evals;
    dis := s.dis @ !dis;
    s
  in
  let cur = ref (random_genome rng cfg) in
  let cur_s = ref (eval !cur) in
  let best = ref !cur_s in
  for _ = 2 to cfg.evals do
    let cand = mutate rng cfg !cur in
    let s = eval cand in
    if Rat.compare s.rate !cur_s.rate >= 0 then begin
      cur := cand;
      cur_s := s;
      incr accepts;
      if Rat.compare s.rate !best.rate > 0 then best := s
    end
  done;
  if Rat.compare !cur_s.rate !best.rate > 0 then best := !cur_s;
  {
    s_rate = !best.rate;
    s_cert = !best.cert;
    s_instances = !instances;
    s_evals = !evals;
    s_accepts = !accepts;
    s_dis = List.rev !dis;
  }

type result = {
  strategy : Game.strategy;
  cfg : config;
  best_rate : Rat.t;
  certificate : Certificate.t;
  instances : int;
  evals : int;
  disagreements : Certificate.t list;
}

let run ?metrics ?domains ~strategy cfg =
  validate cfg;
  let restarts =
    Obs.Instrument.jobs ?metrics ?domains ~family:"search.attacker"
      (List.init cfg.restarts (fun r ->
           ( Printf.sprintf "%s-restart-%d" strategy.Game.key r,
             fun () ->
               restart cfg strategy ~seed:(cfg.seed + ((r + 1) * 7919)) )))
  in
  (* the first restart (in order) with the strictly best rate wins *)
  let best =
    List.fold_left
      (fun best s ->
         match (s.s_cert, best) with
         | Some c, None -> Some (s.s_rate, c)
         | Some c, Some (rate, _) when Rat.compare s.s_rate rate > 0 ->
           Some (s.s_rate, c)
         | _ -> best)
      None restarts
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 restarts in
  let instances = sum (fun s -> s.s_instances) in
  (match Obs.Metrics.resolve metrics with
   | None -> ()
   | Some m ->
     Obs.Metrics.incr ~by:instances m "search.attacker_instances";
     Obs.Metrics.incr ~by:(sum (fun s -> s.s_accepts)) m
       "search.attacker_accepts");
  match best with
  | None -> failwith "Attacker.run: no restart served a request"
  | Some (rate, cert) ->
    { strategy; cfg; best_rate = rate; certificate = cert; instances;
      evals = sum (fun s -> s.s_evals);
      disagreements = List.concat_map (fun s -> s.s_dis) restarts }
