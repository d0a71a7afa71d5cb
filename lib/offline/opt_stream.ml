module Instance = Sched.Instance
module Request = Sched.Request
module Stream = Sched.Paper_graph.Stream
module Ivec = Prelude.Ivec

type t = {
  stream : Stream.t;
  aug : Graph.Augment.t;
  curve : Ivec.t; (* curve.(r) = OPT of the prefix through round r *)
  metrics : Obs.Metrics.t option;
}

let create ?metrics ~n_resources () =
  let stream = Stream.start ~n_resources in
  {
    stream;
    aug = Graph.Augment.create (Stream.graph stream);
    curve = Ivec.create ();
    metrics = Obs.Metrics.resolve metrics;
  }

let record_feed t ~arrivals ~before ~t0 =
  match t.metrics with
  | None -> ()
  | Some m ->
    let after = Graph.Augment.stats t.aug in
    let d f = f after - f (before : Graph.Augment.search_stats) in
    Obs.Metrics.observe m "opt_stream.feed_us" (Obs.Span.elapsed t0 *. 1e6);
    Obs.Metrics.incr m "opt_stream.rounds";
    Obs.Metrics.incr ~by:(Array.length arrivals) m "opt_stream.arrivals";
    Obs.Metrics.incr ~by:(d (fun s -> s.Graph.Augment.searches))
      m "opt_stream.searches";
    Obs.Metrics.incr ~by:(d (fun s -> s.Graph.Augment.successes))
      m "opt_stream.augmentations";
    Obs.Metrics.incr ~by:(d (fun s -> s.Graph.Augment.warm_hits))
      m "opt_stream.warm_hits";
    Obs.Metrics.incr ~by:(d (fun s -> s.Graph.Augment.visited))
      m "opt_stream.search_visits"

let feed t arrivals =
  let before =
    match t.metrics with
    | None -> None
    | Some _ -> Some (Graph.Augment.stats t.aug, Obs.Span.start ())
  in
  let first = Stream.advance t.stream ~arrivals in
  ignore (Graph.Augment.augment_new_rights t.aug ~first : int);
  (match before with
   | None -> ()
   | Some (stats0, t0) -> record_feed t ~arrivals ~before:stats0 ~t0);
  let v = Graph.Augment.size t.aug in
  Ivec.push t.curve v;
  v

let opt t = Graph.Augment.size t.aug
let rounds t = Stream.round t.stream
let curve t = Ivec.to_array t.curve
let graph t = Stream.graph t.stream
let matching t = Graph.Augment.matching t.aug

let of_instance ?metrics inst =
  let t = create ?metrics ~n_resources:inst.Instance.n_resources () in
  for round = 0 to inst.Instance.horizon - 1 do
    ignore (feed t (Instance.arrivals_at inst round) : int)
  done;
  t

let prefix_curve ?metrics inst = curve (of_instance ?metrics inst)

let search_stats t = Graph.Augment.stats t.aug

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
