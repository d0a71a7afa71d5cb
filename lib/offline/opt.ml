module Instance = Sched.Instance
module Request = Sched.Request

let expanded_matching inst =
  let g = Sched.Paper_graph.of_instance inst in
  (* warm start with a greedy matching: cuts Hopcroft-Karp phases on the
     dense adversarial instances *)
  let m = Graph.Hopcroft_karp.solve_from g (Graph.Matching.greedy_maximal g) in
  (g, m)

let expanded inst =
  let _, m = expanded_matching inst in
  Graph.Matching.size m

let value = expanded

let single_alternative_edf inst =
  Array.iter
    (fun (r : Request.t) ->
       if Array.length r.Request.alternatives <> 1 then
         invalid_arg
           "Opt.single_alternative_edf: request with multiple alternatives")
    inst.Instance.requests;
  (* per resource, an EDF sweep over rounds: serving the live request
     with the earliest deadline each round is exactly optimal for unit
     jobs on one machine *)
  let by_resource = Array.make inst.Instance.n_resources [] in
  Array.iter
    (fun (r : Request.t) ->
       let res = r.Request.alternatives.(0) in
       by_resource.(res) <- r :: by_resource.(res))
    inst.Instance.requests;
  let served = ref 0 in
  Array.iter
    (fun reqs ->
       let reqs =
         List.sort
           (fun (a : Request.t) b -> compare a.Request.arrival b.Request.arrival)
           reqs
       in
       (* pending: live requests ordered by (last_round, id) *)
       let module Pq = Set.Make (struct
           type t = int * int (* last_round, id *)
           let compare = compare
         end)
       in
       let pending = ref Pq.empty in
       let remaining = ref reqs in
       let round = ref 0 in
       let continue_ = ref true in
       while !continue_ do
         (* admit arrivals *)
         let rec admit () =
           match !remaining with
           | r :: rest when r.Request.arrival <= !round ->
             pending := Pq.add (Request.last_round r, r.Request.id) !pending;
             remaining := rest;
             admit ()
           | _ -> ()
         in
         admit ();
         (* expire *)
         let rec expire () =
           match Pq.min_elt_opt !pending with
           | Some ((last, _) as e) when last < !round ->
             pending := Pq.remove e !pending;
             expire ()
           | _ -> ()
         in
         expire ();
         (* serve earliest deadline *)
         (match Pq.min_elt_opt !pending with
          | Some e ->
            pending := Pq.remove e !pending;
            incr served
          | None -> ());
         if !remaining = [] && Pq.is_empty !pending then continue_ := false
         else incr round
       done)
    by_resource;
  !served
