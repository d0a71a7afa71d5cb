module Ivec = Prelude.Ivec

type t = {
  left_to : int array;
  right_to : int array;
  left_edge : int array;
}

let empty g =
  {
    left_to = Array.make (Bipartite.n_left g) (-1);
    right_to = Array.make (Bipartite.n_right g) (-1);
    left_edge = Array.make (Bipartite.n_left g) (-1);
  }

let copy m =
  {
    left_to = Array.copy m.left_to;
    right_to = Array.copy m.right_to;
    left_edge = Array.copy m.left_edge;
  }

let size m =
  Array.fold_left (fun acc r -> if r >= 0 then acc + 1 else acc) 0 m.left_to

let is_matched_left m u = m.left_to.(u) >= 0
let is_matched_right m v = m.right_to.(v) >= 0

let use_edge g m id =
  let u = Bipartite.edge_left g id and v = Bipartite.edge_right g id in
  if m.left_to.(u) >= 0 then
    invalid_arg "Matching.use_edge: left endpoint already matched";
  if m.right_to.(v) >= 0 then
    invalid_arg "Matching.use_edge: right endpoint already matched";
  m.left_to.(u) <- v;
  m.right_to.(v) <- u;
  m.left_edge.(u) <- id

let drop_left m u =
  let v = m.left_to.(u) in
  if v >= 0 then begin
    m.left_to.(u) <- -1;
    m.right_to.(v) <- -1;
    m.left_edge.(u) <- -1
  end

let is_valid g m =
  let ok = ref true in
  Array.iteri
    (fun u v ->
       if v >= 0 then begin
         if m.right_to.(v) <> u then ok := false;
         let id = m.left_edge.(u) in
         if id < 0 || id >= Bipartite.n_edges g
            || Bipartite.edge_left g id <> u
            || Bipartite.edge_right g id <> v
         then ok := false
       end
       else if m.left_edge.(u) <> -1 then ok := false)
    m.left_to;
  Array.iteri (fun v u -> if u >= 0 && m.left_to.(u) <> v then ok := false)
    m.right_to;
  !ok

let is_maximal g m =
  let free_pair = ref false in
  Bipartite.iter_edges g (fun _ ~left ~right ->
      if m.left_to.(left) < 0 && m.right_to.(right) < 0 then
        free_pair := true);
  not !free_pair

let matched_edges m =
  let acc = ref [] in
  for u = Array.length m.left_to - 1 downto 0 do
    if m.left_edge.(u) >= 0 then acc := m.left_edge.(u) :: !acc
  done;
  !acc

let greedy_maximal g =
  let m = empty g in
  Bipartite.iter_edges g (fun id ~left ~right ->
      if m.left_to.(left) < 0 && m.right_to.(right) < 0 then
        use_edge g m id);
  m

let augment_along g m path =
  match path with
  | [] -> invalid_arg "Matching.augment_along: empty path"
  | first :: _ ->
    let start = Bipartite.edge_left g first in
    if m.left_to.(start) >= 0 then
      invalid_arg "Matching.augment_along: path must start at a free left \
                   vertex";
    (* validate alternation before mutating *)
    let rec check i = function
      | [] -> ()
      | id :: rest ->
        let matched_here =
          m.left_edge.(Bipartite.edge_left g id) = id
        in
        let expect_matched = i mod 2 = 1 in
        if matched_here <> expect_matched then
          invalid_arg "Matching.augment_along: path does not alternate";
        check (i + 1) rest
    in
    check 0 path;
    if List.length path mod 2 = 0 then
      invalid_arg "Matching.augment_along: path must have odd length";
    (* flip: drop the matched (odd) edges, then add the unmatched (even)
       ones *)
    List.iteri
      (fun i id -> if i mod 2 = 1 then drop_left m (Bipartite.edge_left g id))
      path;
    List.iteri
      (fun i id -> if i mod 2 = 0 then use_edge g m id)
      path
