let of_instance inst =
  let g =
    Graph.Bipartite.create
      ~n_left:(Instance.n_requests inst)
      ~n_right:(Instance.total_slots inst)
  in
  Array.iter
    (fun (r : Request.t) ->
       Array.iter
         (fun res ->
            for round = r.Request.arrival to Request.last_round r do
              ignore
                (Graph.Bipartite.add_edge g ~left:r.Request.id
                   ~right:(Instance.slot_index inst ~resource:res ~round))
            done)
         r.Request.alternatives)
    inst.Instance.requests;
  g

let edge_for g inst ~request ~resource ~round =
  if round < 0 || round >= inst.Instance.horizon
     || resource < 0 || resource >= inst.Instance.n_resources
  then None
  else begin
    let slot = Instance.slot_index inst ~resource ~round in
    let found = ref None in
    Prelude.Ivec.iter
      (fun e ->
         if Graph.Bipartite.edge_right g e = slot && !found = None then
           found := Some e)
      (Graph.Bipartite.adj_left g request);
    !found
  end
