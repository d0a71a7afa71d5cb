module Instance = Sched.Instance
module Request = Sched.Request
module Augment = Graph.Augment

(* The paper graph is grown in [aug]'s column store: round [r]'s slot
   for resource [res] is right vertex [r * n + res], and request ids
   are left vertices in feed order.  A round is one [aug] epoch, and a
   request is open through its last round.  The requests whose window
   reaches past the last fed round are the live set, kept as parallel
   arrays in left-id order (oldest first), [n_live] of them in use.
   Each column lists the live requests newest-first, then the round's
   arrivals in feed order: the order the Kuhn searches probe them. *)
type t = {
  n : int;
  aug : Augment.t;
  metrics : Obs.Metrics.t option;
  mutable live : Request.t array;
  mutable live_left : int array; (* the left vertex of [live.(i)] *)
  mutable n_live : int;
  ends : int array; (* per resource: end of its column in [edges] *)
  mutable edges : int array; (* the round's columns, by resource *)
}

let create ?metrics ~n_resources () =
  if n_resources < 1 then invalid_arg "Opt_stream.create: need >= 1 resource";
  {
    n = n_resources;
    aug = Augment.create ();
    metrics = Obs.Metrics.resolve metrics;
    live = [||];
    live_left = [||];
    n_live = 0;
    ends = Array.make n_resources 0;
    edges = [||];
  }

let grow a n ~fill =
  if n <= Array.length a then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let record_feed t ~arrivals ~before ~t0 =
  match t.metrics with
  | None -> ()
  | Some m ->
    let after = Augment.stats t.aug in
    let d f = f after - f (before : Augment.search_stats) in
    Obs.Metrics.observe m "opt_stream.feed_us" (Obs.Span.elapsed t0 *. 1e6);
    Obs.Metrics.incr m "opt_stream.rounds";
    Obs.Metrics.incr ~by:(Array.length arrivals) m "opt_stream.arrivals";
    Obs.Metrics.incr ~by:(d (fun s -> s.Augment.searches))
      m "opt_stream.searches";
    Obs.Metrics.incr ~by:(d (fun s -> s.Augment.successes))
      m "opt_stream.augmentations";
    Obs.Metrics.incr ~by:(d (fun s -> s.Augment.warm_hits))
      m "opt_stream.warm_hits";
    Obs.Metrics.incr ~by:(d (fun s -> s.Augment.flips)) m "opt_stream.flips";
    Obs.Metrics.incr ~by:(d (fun s -> s.Augment.visited))
      m "opt_stream.search_visits"

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

(* Append the round's slot column, one right vertex per resource. *)
let append_round t (arrivals : Request.t array) =
  let first_left = Augment.n_left t.aug in
  for j = 0 to Array.length arrivals - 1 do
    let last = Request.last_round arrivals.(j) in
    ignore (Augment.add_left t.aug ~last : int)
  done;
  Array.fill t.ends 0 t.n 0;
  for i = 0 to t.n_live - 1 do
    count_edges t t.live.(i)
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
  t.edges <- grow t.edges !total ~fill:0;
  for i = t.n_live - 1 downto 0 do
    place t t.live.(i) t.live_left.(i)
  done;
  for j = 0 to Array.length arrivals - 1 do
    place t arrivals.(j) (first_left + j)
  done;
  let start = ref 0 in
  for res = 0 to t.n - 1 do
    let stop = t.ends.(res) in
    ignore (Augment.add_right t.aug t.edges ~pos:!start ~len:(stop - !start) : int);
    start := stop
  done;
  first_left

(* Drop the requests whose window closes with this round and admit the
   arrivals whose window goes on, keeping left-id order. *)
let update_live t (arrivals : Request.t array) ~round ~first_left =
  let kept = ref 0 in
  for i = 0 to t.n_live - 1 do
    if Request.last_round t.live.(i) > round then begin
      t.live.(!kept) <- t.live.(i);
      t.live_left.(!kept) <- t.live_left.(i);
      incr kept
    end
  done;
  let cap = !kept + Array.length arrivals in
  if cap > Array.length t.live then begin
    (* any request fills the new cells; only [0, n_live) is read *)
    t.live <- grow t.live cap ~fill:arrivals.(0);
    t.live_left <- grow t.live_left cap ~fill:0
  end;
  for j = 0 to Array.length arrivals - 1 do
    if Request.last_round arrivals.(j) > round then begin
      t.live.(!kept) <- arrivals.(j);
      t.live_left.(!kept) <- first_left + j;
      incr kept
    end
  done;
  t.n_live <- !kept

let feed t arrivals =
  let before =
    match t.metrics with
    | None -> None
    | Some _ -> Some (Augment.stats t.aug, Obs.Span.start ())
  in
  let round = Augment.epoch t.aug in
  validate t arrivals ~round;
  let first_left = append_round t arrivals in
  update_live t arrivals ~round ~first_left;
  ignore (Augment.augment t.aug : int);
  Augment.settle t.aug;
  (match before with
   | None -> ()
   | Some (stats0, t0) -> record_feed t ~arrivals ~before:stats0 ~t0);
  Augment.size t.aug

let opt t = Augment.size t.aug
let rounds t = Augment.epoch t.aug
let first_held t = Augment.first_left t.aug
let partner t i = Augment.partner t.aug i
let search_stats t = Augment.stats t.aug

let of_instance ?metrics inst =
  let t = create ?metrics ~n_resources:inst.Instance.n_resources () in
  for round = 0 to inst.Instance.horizon - 1 do
    ignore (feed t (Instance.arrivals_at inst round) : int)
  done;
  t

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
