module Ivec = Prelude.Ivec

(* Incremental maximum matching on a growing bipartite graph.

   The structure shadows the partner maps of {!Matching} in capacity
   arrays so the graph can keep growing underneath it, and restores
   maximality after a batch of appends by Kuhn-style augmenting-path
   searches rooted at the freshly added free right vertices.

   Why roots on the right suffice: every augmenting path in a bipartite
   graph has exactly one free endpoint on each side.  If the matching was
   maximum before the appends and every new edge is incident to a new
   right vertex (the paper-graph streaming discipline: a round's slots
   arrive together with all edges into them), then any augmenting path
   must use a new edge, whose new right endpoint is free and therefore an
   endpoint of the path.  Old free right vertices stay dead: an
   augmenting path rooted at one would have its single right endpoint
   there, so it could not absorb any new edge (new edges end at *free*
   right vertices, which cannot be interior), hence it would have existed
   before the append — contradiction.  Augmentations never revive dead
   roots (the classical non-revival lemma), so one search per new right
   vertex, ever, keeps the matching maximum.

   Saturation pruning (DESIGN §4.3.1).  Let H be the graph the searches
   have seen so far: the matched right vertices and the roots already
   searched, with all their edges.  The matching is maximum in H after
   every search, and a search never leaves H (it moves right only along
   matching edges).  Three facts make a failed search's visits dead for
   good:
   - a failed search from a free root visits only left vertices that
     are matched in every maximum matching of H (a maximum matching
     missing one would give an alternating walk from the root to a free
     left vertex, and in a bipartite graph such a walk shortens to an
     augmenting path);
   - that stays true when right vertices whose edges are all new, and
     left vertices with edges only to them, are appended (the
     symmetric difference with a maximum matching missing the vertex
     is a path that uses no new edge, so it would already refute the
     property in H);
   - every left vertex on an augmenting path from a new root is missed
     by some maximum matching of the old H (flip the path's tail).
   So dead vertices lie on no augmenting path, skipping them loses
   nothing, and each left vertex is visited by at most one failed
   search. *)

type search_stats = {
  searches : int;
  successes : int;
  warm_hits : int;
  visited : int;
  failed_visits : int;
}

(* [stamp.(u)] is the clock of the last search that visited [u], or
   [dead] once a failed search visited it.  [dead] is [max_int], so
   "visited by this search or dead" is the one test [stamp >= clock]. *)
let dead = max_int

type t = {
  g : Bipartite.t;
  mutable left_to : int array; (* capacity >= n_left g; -1 = free *)
  mutable right_to : int array; (* capacity >= n_right g; -1 = free *)
  mutable left_edge : int array; (* capacity >= n_left g; -1 = free *)
  mutable stamp : int array; (* per left vertex: visit clock or [dead] *)
  mutable clock : int;
  trail : Ivec.t; (* left vertices stamped by the live search *)
  mutable size : int;
  (* plain counters (no locking: callers own the structure), read out by
     the observability layer via [stats] *)
  mutable searches : int;
  mutable successes : int;
  mutable warm_hits : int;
  mutable visited : int;
  mutable failed_visits : int;
}

let grow a n ~fill =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n (2 * cap)) fill in
    Array.blit a 0 a' 0 cap;
    a'
  end

let sync t =
  let nl = Bipartite.n_left t.g and nr = Bipartite.n_right t.g in
  t.left_to <- grow t.left_to nl ~fill:(-1);
  t.left_edge <- grow t.left_edge nl ~fill:(-1);
  t.stamp <- grow t.stamp nl ~fill:0;
  t.right_to <- grow t.right_to nr ~fill:(-1)

let create g =
  let nl = Bipartite.n_left g and nr = Bipartite.n_right g in
  let t =
    {
      g;
      left_to = Array.make (max nl 1) (-1);
      right_to = Array.make (max nr 1) (-1);
      left_edge = Array.make (max nl 1) (-1);
      stamp = Array.make (max nl 1) 0;
      clock = 0;
      trail = Ivec.create ~capacity:64 ();
      size = 0;
      searches = 0;
      successes = 0;
      warm_hits = 0;
      visited = 0;
      failed_visits = 0;
    }
  in
  if Bipartite.n_edges g > 0 then begin
    (* a pre-populated graph needs a full solve once; afterwards the
       incremental invariant carries the maximality forward *)
    let m = Hopcroft_karp.solve_from g (Matching.greedy_maximal g) in
    Array.blit m.Matching.left_to 0 t.left_to 0 nl;
    Array.blit m.Matching.left_edge 0 t.left_edge 0 nl;
    Array.blit m.Matching.right_to 0 t.right_to 0 nr;
    t.size <- Matching.size m
  end;
  t

let graph t = t.g
let size t = t.size

let stats t =
  {
    searches = t.searches;
    successes = t.successes;
    warm_hits = t.warm_hits;
    visited = t.visited;
    failed_visits = t.failed_visits;
  }

(* Kuhn DFS from right vertex [r] over its edges [adj] from index [i]
   on, looking for a free left vertex along an alternating path; flips
   the path in place on success.  Top-level recursion, no closures: a
   search allocates nothing unless [trail] has to grow. *)
let rec search t r adj i =
  if i >= Ivec.length adj then false
  else begin
    let id = Ivec.get adj i in
    let u = Bipartite.edge_left t.g id in
    if t.stamp.(u) >= t.clock then search t r adj (i + 1)
    else begin
      t.stamp.(u) <- t.clock;
      Ivec.push t.trail u;
      let r' = t.left_to.(u) in
      if r' < 0 || search t r' (Bipartite.adj_right t.g r') 0 then begin
        (* if u was matched, the recursive call found r' a new partner
           already, so stealing u is safe *)
        t.left_to.(u) <- r;
        t.right_to.(r) <- u;
        t.left_edge.(u) <- id;
        true
      end
      else search t r adj (i + 1)
    end
  end

let augment_from_right t r =
  sync t;
  if r < 0 || r >= Bipartite.n_right t.g then
    invalid_arg "Augment.augment_from_right: right vertex out of range";
  if t.right_to.(r) >= 0 then false
  else begin
    t.clock <- t.clock + 1;
    Ivec.clear t.trail;
    let grew = search t r (Bipartite.adj_right t.g r) 0 in
    let visits = Ivec.length t.trail in
    t.searches <- t.searches + 1;
    t.visited <- t.visited + visits;
    if grew then begin
      t.size <- t.size + 1;
      t.successes <- t.successes + 1;
      (* a warm hit: the root's first probe was a free left vertex, no
         rematching needed — the common case on paper-graph streams *)
      if visits = 1 then t.warm_hits <- t.warm_hits + 1
    end
    else begin
      (* every vertex this failed search reached is matched in every
         maximum matching, now and after any later append (see the
         header): no augmenting path can pass through it again *)
      t.failed_visits <- t.failed_visits + visits;
      for k = 0 to visits - 1 do
        t.stamp.(Ivec.get t.trail k) <- dead
      done
    end;
    grew
  end

let augment_new_rights t ~first =
  sync t;
  if first < 0 then invalid_arg "Augment.augment_new_rights: negative first";
  let gained = ref 0 in
  for r = first to Bipartite.n_right t.g - 1 do
    if augment_from_right t r then incr gained
  done;
  !gained

let is_dead t u =
  sync t;
  if u < 0 || u >= Bipartite.n_left t.g then
    invalid_arg "Augment.is_dead: left vertex out of range";
  t.stamp.(u) = dead

let matching t =
  sync t;
  let nl = Bipartite.n_left t.g and nr = Bipartite.n_right t.g in
  {
    Matching.left_to = Array.sub t.left_to 0 nl;
    right_to = Array.sub t.right_to 0 nr;
    left_edge = Array.sub t.left_edge 0 nl;
  }
