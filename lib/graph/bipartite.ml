module Ivec = Prelude.Ivec

type t = {
  n_left : int;
  n_right : int;
  srcs : Ivec.t; (* edge id -> left endpoint *)
  dsts : Ivec.t; (* edge id -> right endpoint *)
  adj_l : Ivec.t array;
  adj_r : Ivec.t array;
}

let create ~n_left ~n_right =
  if n_left < 0 || n_right < 0 then
    invalid_arg "Bipartite.create: negative vertex count";
  {
    n_left;
    n_right;
    srcs = Ivec.create ();
    dsts = Ivec.create ();
    adj_l = Array.init n_left (fun _ -> Ivec.create ~capacity:4 ());
    adj_r = Array.init n_right (fun _ -> Ivec.create ~capacity:4 ());
  }

let n_left t = t.n_left
let n_right t = t.n_right
let n_edges t = Ivec.length t.srcs

let add_edge t ~left ~right =
  if left < 0 || left >= t.n_left then
    invalid_arg "Bipartite.add_edge: left endpoint out of range";
  if right < 0 || right >= t.n_right then
    invalid_arg "Bipartite.add_edge: right endpoint out of range";
  let id = Ivec.length t.srcs in
  Ivec.push t.srcs left;
  Ivec.push t.dsts right;
  Ivec.push t.adj_l.(left) id;
  Ivec.push t.adj_r.(right) id;
  id

let edge_left t id = Ivec.get t.srcs id
let edge_right t id = Ivec.get t.dsts id
let adj_left t v = t.adj_l.(v)
let adj_right t v = t.adj_r.(v)
let degree_left t v = Ivec.length t.adj_l.(v)
let degree_right t v = Ivec.length t.adj_r.(v)

let iter_edges t f =
  for id = 0 to n_edges t - 1 do
    f id ~left:(edge_left t id) ~right:(edge_right t id)
  done

let has_edge t ~left ~right =
  if degree_left t left <= degree_right t right then
    Ivec.exists (fun id -> edge_right t id = right) t.adj_l.(left)
  else Ivec.exists (fun id -> edge_left t id = left) t.adj_r.(right)
