module Instance = Sched.Instance
module Request = Sched.Request
module Augment = Graph.Augment

module M = Obs.Metrics

(* the [opt_stream.*] handles, bound once per tracker *)
type meters = {
  feed_us : M.histogram;
  rounds : M.counter;
  arrivals : M.counter;
  searches : M.counter;
  augmentations : M.counter;
  warm_hits : M.counter;
  flips : M.counter;
  search_visits : M.counter;
}

let meters m =
  let c name = M.register_counter m ("opt_stream." ^ name) in
  {
    feed_us = M.register_histogram m "opt_stream.feed_us";
    rounds = c "rounds";
    arrivals = c "arrivals";
    searches = c "searches";
    augmentations = c "augmentations";
    warm_hits = c "warm_hits";
    flips = c "flips";
    search_visits = c "search_visits";
  }

(* The paper graph is grown in [aug]'s column store: round [r]'s slot
   for resource [res] is right vertex [r * n + res], and request ids
   are left vertices in feed order.  A round is one [aug] epoch, and a
   request is open through its last round.  The requests whose window
   reaches past the last fed round are the live set: [aug]'s open
   lefts, whose requests sit in the id ring [reqs] (left [u] at
   [Sched.Id_ring.cell reqs u], lefts from the oldest open one on).
   Each column lists the live requests newest-first, then the round's
   arrivals in feed order: the order the Kuhn searches probe them. *)
type t = {
  n : int;
  aug : Augment.t;
  meters : meters option;
  mutable reqs : Request.t array;
  ends : int array; (* per resource: end of its column in [edges] *)
  mutable edges : int array; (* the round's columns, by resource *)
}

(* fills the cells of [reqs] no open left holds *)
let vacant =
  Request.of_array ~id:(-1) ~arrival:0 ~alternatives:[| 0 |] ~deadline:1

(* Every array starts at a size a small instance never outgrows, so a
   tracker that solves one pays for a few small blocks and no growth. *)
let create ?metrics ~n_resources () =
  if n_resources < 1 then invalid_arg "Opt_stream.create: need >= 1 resource";
  {
    n = n_resources;
    aug = Augment.create ();
    meters = Option.map meters (M.resolve metrics);
    reqs = Array.make 16 vacant;
    ends = Array.make n_resources 0;
    edges = Array.make 64 0;
  }

let record_feed m aug ~arrivals ~(before : Augment.search_stats) ~t0 =
  let after = Augment.stats aug in
  M.record m.feed_us (Obs.Span.elapsed t0 *. 1e6);
  M.add m.rounds 1;
  M.add m.arrivals (Array.length arrivals);
  M.add m.searches (after.Augment.searches - before.searches);
  M.add m.augmentations (after.successes - before.successes);
  M.add m.warm_hits (after.warm_hits - before.warm_hits);
  M.add m.flips (after.flips - before.flips);
  M.add m.search_visits (after.visited - before.visited)

(* Every arrival is checked before anything is appended, so a rejected
   feed leaves the tracker as it was. *)
let validate t (arrivals : Request.t array) ~round =
  for j = 0 to Array.length arrivals - 1 do
    let r = arrivals.(j) in
    if r.Request.arrival <> round then
      invalid_arg
        (Printf.sprintf "Opt_stream.feed: arrival %d fed at round %d"
           r.Request.arrival round);
    let alts = r.Request.alternatives in
    for k = 0 to Array.length alts - 1 do
      if alts.(k) < 0 || alts.(k) >= t.n then
        invalid_arg
          (Printf.sprintf "Opt_stream.feed: resource %d out of range [0,%d)"
             alts.(k) t.n)
    done
  done

let count_edges t (r : Request.t) =
  let alts = r.Request.alternatives in
  for k = 0 to Array.length alts - 1 do
    t.ends.(alts.(k)) <- t.ends.(alts.(k)) + 1
  done

(* Counting sort of the round's edges by resource: [ends.(res)] is the
   cursor of column [res] while placing, and its end afterwards. *)
let place t (r : Request.t) left =
  let alts = r.Request.alternatives in
  for k = 0 to Array.length alts - 1 do
    let res = alts.(k) in
    t.edges.(t.ends.(res)) <- left;
    t.ends.(res) <- t.ends.(res) + 1
  done

let live t k = t.reqs.(Sched.Id_ring.cell t.reqs (Augment.open_left t.aug k))

(* Append the round's slot column, one right vertex per resource. *)
let append_round t (arrivals : Request.t array) =
  let first_left = Augment.n_left t.aug and n_live = Augment.n_open t.aug in
  let low = if n_live > 0 then Augment.open_left t.aug 0 else first_left in
  while first_left + Array.length arrivals - low > Array.length t.reqs do
    t.reqs <- Sched.Id_ring.grow t.reqs ~low ~next:first_left vacant
  done;
  for j = 0 to Array.length arrivals - 1 do
    let last = Request.last_round arrivals.(j) in
    let u = Augment.add_left t.aug ~last in
    t.reqs.(Sched.Id_ring.cell t.reqs u) <- arrivals.(j)
  done;
  for res = 0 to t.n - 1 do
    t.ends.(res) <- 0
  done;
  for k = 0 to n_live - 1 do
    count_edges t (live t k)
  done;
  for j = 0 to Array.length arrivals - 1 do
    count_edges t arrivals.(j)
  done;
  (* turn counts into column starts *)
  let total = ref 0 in
  for res = 0 to t.n - 1 do
    let c = t.ends.(res) in
    t.ends.(res) <- !total;
    total := !total + c
  done;
  (* scratch rewritten every round: a larger array, nothing copied *)
  if !total > Array.length t.edges then
    t.edges <- Array.make (max !total (2 * Array.length t.edges)) 0;
  for k = n_live - 1 downto 0 do
    place t (live t k) (Augment.open_left t.aug k)
  done;
  for j = 0 to Array.length arrivals - 1 do
    place t arrivals.(j) (first_left + j)
  done;
  Augment.add_columns t.aug t.edges ~ends:t.ends ~count:t.n

let feed t arrivals =
  let before =
    match t.meters with
    | None -> None
    | Some m -> Some (m, Augment.stats t.aug, Obs.Span.start ())
  in
  let round = Augment.epoch t.aug in
  validate t arrivals ~round;
  append_round t arrivals;
  ignore (Augment.augment t.aug : int);
  Augment.settle t.aug;
  (match before with
   | None -> ()
   | Some (m, stats0, t0) -> record_feed m t.aug ~arrivals ~before:stats0 ~t0);
  Augment.size t.aug

let opt t = Augment.size t.aug
let rounds t = Augment.epoch t.aug
let first_held t = Augment.first_left t.aug
let partner t i = Augment.partner t.aug i
let search_stats t = Augment.stats t.aug

let prefix_curve ?metrics inst =
  let t = create ?metrics ~n_resources:inst.Instance.n_resources () in
  Array.init inst.Instance.horizon (fun round ->
      feed t (Instance.arrivals_at inst round))

(* Naive baseline: one full from-scratch solve per prefix.  Kept here so
   the bench and the differential tests share the exact reference the
   streaming path is measured and pinned against. *)
let naive_prefix inst ~upto =
  let n = inst.Instance.n_resources in
  let g =
    Graph.Bipartite.create
      ~n_left:(Instance.n_requests inst)
      ~n_right:((upto + 1) * n)
  in
  Array.iter
    (fun (r : Request.t) ->
       if r.Request.arrival <= upto then
         Array.iter
           (fun res ->
              for round = r.Request.arrival
                  to min (Request.last_round r) upto do
                ignore
                  (Graph.Bipartite.add_edge g ~left:r.Request.id
                     ~right:((round * n) + res))
              done)
           r.Request.alternatives)
    inst.Instance.requests;
  Graph.Matching.size
    (Graph.Hopcroft_karp.solve_from g (Graph.Matching.greedy_maximal g))

let naive_prefix_curve inst =
  Array.init inst.Instance.horizon (fun upto -> naive_prefix inst ~upto)
