module Ivec = Prelude.Ivec

(* Residual digraph of a matching M:
     - unmatched edge (u,v): arc u -> v with gain +w(e)
     - matched edge (u,v):  arc v -> u with gain -w(e)
   An augmenting path is a residual path from a free left vertex to a free
   right vertex; its total gain is the weight change of augmenting along
   it.  While the current matching is maximum-weight among matchings of
   its cardinality, the residual graph has no positive-gain cycle, so
   queue-based Bellman-Ford (SPFA) computes maximum-gain labels in finite
   time.

   The solver runs in phases.  One SPFA sweep labels every vertex with
   its maximum gain from the free left side; if the best free right label
   [g] is positive, the phase flips a set of vertex-disjoint augmenting
   paths of gain [g], all of them tight against the sweep's labels
   ([label a + gain = label b] on every arc).  Reversing a tight arc
   gives a tight arc, so the labels stay feasible potentials for the new
   residual graph: it still has no positive cycle, and the matching stays
   maximum-weight for its size.  Targets are the free right vertices
   labelled [g], visited in ascending index; from each, a depth-first
   search walks tight arcs backwards (incoming edges in ascending id) to
   a free left vertex that no earlier search of the phase visited. *)

type state = {
  g : Bipartite.t;
  w : Lexvec.t array; (* edge id -> weight *)
  zero : Lexvec.t;
  m : Matching.t;
  dist_l : Lexvec.t option array;
  dist_r : Lexvec.t option array;
  visited : bool array; (* left vertex reached by a search this phase *)
}

let load_weights g ~weight =
  let ne = Bipartite.n_edges g in
  let w = Array.init ne weight in
  if ne > 0 then begin
    let k = Array.length w.(0) in
    Array.iteri
      (fun id v ->
         if Array.length v <> k then
           invalid_arg
             (Printf.sprintf
                "Tiered: edge %d weight length %d, expected %d" id
                (Array.length v) k))
      w
  end;
  w

let make_state g ~weight m =
  let w = load_weights g ~weight in
  let k = if Array.length w = 0 then 0 else Array.length w.(0) in
  {
    g;
    w;
    zero = Lexvec.zero k;
    m;
    dist_l = Array.make (Bipartite.n_left g) None;
    dist_r = Array.make (Bipartite.n_right g) None;
    visited = Array.make (Bipartite.n_left g) false;
  }

(* One SPFA sweep from all free left vertices.  Fills the dist arrays.
   The relaxation budget guards the internal no-positive-cycle invariant:
   exceeding it means the invariant was broken (a bug), not bad input. *)
let spfa st =
  let nl = Bipartite.n_left st.g and nr = Bipartite.n_right st.g in
  Array.fill st.dist_l 0 nl None;
  Array.fill st.dist_r 0 nr None;
  (* queue of vertices: left encoded as v, right as nl + v *)
  let queue = Queue.create () in
  let in_queue = Array.make (nl + nr) false in
  let push code =
    if not in_queue.(code) then begin
      in_queue.(code) <- true;
      Queue.add code queue
    end
  in
  for u = 0 to nl - 1 do
    if not (Matching.is_matched_left st.m u) then begin
      st.dist_l.(u) <- Some st.zero;
      push u
    end
  done;
  let budget =
    let v = nl + nr and e = Bipartite.n_edges st.g in
    (v + 1) * (e + 1) * 2
  in
  let steps = ref 0 in
  while not (Queue.is_empty queue) do
    incr steps;
    if !steps > budget then
      failwith "Tiered.spfa: relaxation budget exceeded (positive cycle?)";
    let code = Queue.pop queue in
    in_queue.(code) <- false;
    if code < nl then begin
      (* left vertex: relax along its non-matching edges *)
      let u = code in
      match st.dist_l.(u) with
      | None -> ()
      | Some du ->
        Ivec.iter
          (fun id ->
             if st.m.Matching.left_edge.(u) <> id then begin
               let v = Bipartite.edge_right st.g id in
               let cand = Lexvec.add du st.w.(id) in
               let better =
                 match st.dist_r.(v) with
                 | None -> true
                 | Some dv -> Lexvec.compare cand dv > 0
               in
               if better then begin
                 st.dist_r.(v) <- Some cand;
                 push (nl + v)
               end
             end)
          (Bipartite.adj_left st.g u)
    end
    else begin
      (* right vertex: relax along its matching edge (if matched) *)
      let v = code - nl in
      match st.dist_r.(v) with
      | None -> ()
      | Some dv ->
        let u = st.m.Matching.right_to.(v) in
        if u >= 0 then begin
          let id = st.m.Matching.left_edge.(u) in
          let cand = Lexvec.sub dv st.w.(id) in
          let better =
            match st.dist_l.(u) with
            | None -> true
            | Some du -> Lexvec.compare cand du > 0
          in
          if better then begin
            st.dist_l.(u) <- Some cand;
            push u
          end
        end
    end
  done

(* Best label over the free right vertices, if any is reached. *)
let best_gain st =
  let best = ref None in
  for v = 0 to Bipartite.n_right st.g - 1 do
    if not (Matching.is_matched_right st.m v) then
      match (st.dist_r.(v), !best) with
      | None, _ -> ()
      | Some dv, Some b when Lexvec.compare dv b <= 0 -> ()
      | Some dv, _ -> best := Some dv
  done;
  !best

(* An arc of gain [c] from a vertex labelled [da] to one labelled [db]
   is tight when [da + c = db]; arcs at unreached vertices never are. *)
let tight da c db =
  match (da, db) with
  | Some a, Some b -> Lexvec.equal (Lexvec.add a c) b
  | _ -> false

(* Depth-first search backwards from right vertex [v] over tight arcs to
   a free left vertex not visited this phase.  [acc] holds the path's
   edges already found, nearest the target last; the result starts at
   the free left vertex, as [Matching.augment_along] expects. *)
let rec search st v acc =
  let adj = Bipartite.adj_right st.g v in
  let rec scan i =
    if i >= Ivec.length adj then None
    else begin
      let e = Ivec.get adj i in
      let u = Bipartite.edge_left st.g e in
      if
        st.visited.(u)
        || st.m.Matching.left_edge.(u) = e
        || not (tight st.dist_l.(u) st.w.(e) st.dist_r.(v))
      then scan (i + 1)
      else begin
        st.visited.(u) <- true;
        let e' = st.m.Matching.left_edge.(u) in
        if e' < 0 then Some (e :: acc)
        else
          let v' = Bipartite.edge_right st.g e' in
          let found =
            if tight st.dist_r.(v') (Lexvec.neg st.w.(e')) st.dist_l.(u)
            then search st v' (e' :: e :: acc)
            else None
          in
          match found with Some _ -> found | None -> scan (i + 1)
      end
    end
  in
  scan 0

(* One phase: a sweep, then disjoint tight maximum-gain augmentations.
   Returns [false] once no augmenting path has positive gain. *)
let phase st =
  spfa st;
  match best_gain st with
  | Some g when Lexvec.compare g st.zero > 0 ->
    Array.fill st.visited 0 (Array.length st.visited) false;
    for v = 0 to Bipartite.n_right st.g - 1 do
      match st.dist_r.(v) with
      | Some dv
        when (not (Matching.is_matched_right st.m v)) && Lexvec.equal dv g ->
        Option.iter (Matching.augment_along st.g st.m) (search st v [])
      | _ -> ()
    done;
    true
  | Some _ | None -> false

let solve g ~weight =
  let st = make_state g ~weight (Matching.empty g) in
  while phase st do () done;
  st.m

let weight_of g ~weight m =
  let w = load_weights g ~weight in
  let k = if Array.length w = 0 then 0 else Array.length w.(0) in
  List.fold_left
    (fun acc id -> Lexvec.add acc w.(id))
    (Lexvec.zero k) (Matching.matched_edges m)

(* Optimality certificate.  (1) No augmenting path of positive gain:
   free-left-source SPFA must give non-positive gain at every free right
   vertex.  (2) No positive alternating cycle: Bellman-Ford with all
   distances seeded to zero; if any distance can still improve after
   V full rounds, a positive cycle exists. *)
let is_max_weight_certificate g ~weight m =
  let st = make_state g ~weight (Matching.copy m) in
  let w = st.w and zero = st.zero in
  let no_augmenting =
    try
      spfa st;
      match best_gain st with
      | Some gain -> Lexvec.compare gain zero <= 0
      | None -> true
    with Failure _ -> false
  in
  if not no_augmenting then false
  else begin
    (* positive-cycle detection by dense Bellman-Ford *)
    let nl = Bipartite.n_left g and nr = Bipartite.n_right g in
    let dl = Array.make nl zero and dr = Array.make nr zero in
    let changed = ref true in
    let rounds = ref 0 in
    let has_cycle = ref false in
    while !changed && not !has_cycle do
      changed := false;
      incr rounds;
      Bipartite.iter_edges g (fun id ~left ~right ->
          if m.Matching.left_edge.(left) = id then begin
            (* matched: arc right -> left with -w *)
            let cand = Lexvec.sub dr.(right) w.(id) in
            if Lexvec.compare cand dl.(left) > 0 then begin
              dl.(left) <- cand;
              changed := true
            end
          end
          else begin
            let cand = Lexvec.add dl.(left) w.(id) in
            if Lexvec.compare cand dr.(right) > 0 then begin
              dr.(right) <- cand;
              changed := true
            end
          end);
      if !rounds > nl + nr + 1 then has_cycle := true
    done;
    not !has_cycle
  end
