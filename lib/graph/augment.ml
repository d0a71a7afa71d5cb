module Ivec = Prelude.Ivec

(* Incremental maximum matching on a bipartite graph that grows one
   right vertex at a time, each arriving together with all its edges.

   The structure owns the graph, stored the way it is appended: a
   right-grouped CSR.  [lefts] holds the left endpoint of every edge,
   column after column, so an edge id is its position; [offsets] holds
   one boundary per right vertex.  Maximality is restored after a batch
   of columns by Kuhn-style augmenting-path searches rooted at the
   freshly added (free) right vertices.

   Why roots on the right suffice: every augmenting path in a bipartite
   graph has exactly one free endpoint on each side.  If the matching was
   maximum before the appends and every new edge is incident to a new
   right vertex (which [add_right] makes the only possible append: a
   round's slots arrive together with all edges into them), then any
   augmenting path must use a new edge, whose new right endpoint is free
   and therefore an endpoint of the path.  Old free right vertices stay
   dead: an augmenting path rooted at one would have its single right
   endpoint there, so it could not absorb any new edge (new edges end at
   *free* right vertices, which cannot be interior), hence it would have
   existed before the append — contradiction.  Augmentations never
   revive dead roots (the classical non-revival lemma), so one search
   per new right vertex, ever, keeps the matching maximum.  A search
   enters a right vertex only along a matching edge, so a right vertex
   whose own search failed is never matched later: the partner map on
   the right side follows from [left_to] and is not stored.

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

(* Growable int vectors in fixed-size chunks: appending never copies a
   filled chunk, so a long stream neither pays doubling copies of
   multi-megabyte arrays nor holds up to twice its data.  Only chunk 0
   grows by doubling (up to the chunk size), so a small graph stays
   small. *)
module Chunked = struct
  let bits = 12
  let chunk = 1 lsl bits
  let mask = chunk - 1

  type t = { mutable chunks : int array array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }
  let length v = v.len
  let get v i = v.chunks.(i lsr bits).(i land mask)
  let set v i x = v.chunks.(i lsr bits).(i land mask) <- x

  let push v x =
    let i = v.len in
    let c = i lsr bits and o = i land mask in
    if c = Array.length v.chunks then begin
      let dir = Array.make (max 4 (2 * c)) [||] in
      Array.blit v.chunks 0 dir 0 c;
      v.chunks <- dir
    end;
    if o = Array.length v.chunks.(c) then begin
      let a = Array.make (if c = 0 then min chunk (max 16 (2 * o)) else chunk) 0 in
      Array.blit v.chunks.(c) 0 a 0 o;
      v.chunks.(c) <- a
    end;
    v.chunks.(c).(o) <- x;
    v.len <- i + 1
end

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
  lefts : Chunked.t; (* edge id -> left endpoint, grouped by right *)
  offsets : Chunked.t; (* right r owns edge ids offsets.(r) .. offsets.(r+1)-1 *)
  left_to : Chunked.t; (* per left vertex: matched right vertex or -1 *)
  stamp : Chunked.t; (* per left vertex: visit clock or [dead] *)
  mutable searched : int; (* right vertices [0, searched) had their search *)
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

let create () =
  let offsets = Chunked.create () in
  Chunked.push offsets 0;
  {
    lefts = Chunked.create ();
    offsets;
    left_to = Chunked.create ();
    stamp = Chunked.create ();
    searched = 0;
    clock = 0;
    trail = Ivec.create ~capacity:64 ();
    size = 0;
    searches = 0;
    successes = 0;
    warm_hits = 0;
    visited = 0;
    failed_visits = 0;
  }

let n_left t = Chunked.length t.left_to
let n_right t = Chunked.length t.offsets - 1
let n_edges t = Chunked.length t.lefts
let size t = t.size

let add_left t =
  Chunked.push t.left_to (-1);
  Chunked.push t.stamp 0;
  n_left t - 1

let add_right t lefts ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length lefts - len then
    invalid_arg "Augment.add_right: slice out of bounds";
  let nl = n_left t in
  for i = pos to pos + len - 1 do
    if lefts.(i) < 0 || lefts.(i) >= nl then
      invalid_arg "Augment.add_right: left vertex out of range"
  done;
  for i = pos to pos + len - 1 do
    Chunked.push t.lefts lefts.(i)
  done;
  Chunked.push t.offsets (n_edges t);
  n_right t - 1

let stats t =
  {
    searches = t.searches;
    successes = t.successes;
    warm_hits = t.warm_hits;
    visited = t.visited;
    failed_visits = t.failed_visits;
  }

(* Kuhn DFS from right vertex [r] over its edge ids [i, stop), looking
   for a free left vertex along an alternating path; flips the path in
   place on success.  Top-level recursion, no closures: a search
   allocates nothing unless [trail] has to grow. *)
let rec search t r i stop =
  if i >= stop then false
  else begin
    let u = Chunked.get t.lefts i in
    if Chunked.get t.stamp u >= t.clock then search t r (i + 1) stop
    else begin
      Chunked.set t.stamp u t.clock;
      Ivec.push t.trail u;
      let r' = Chunked.get t.left_to u in
      if r' < 0
      || search t r' (Chunked.get t.offsets r') (Chunked.get t.offsets (r' + 1))
      then begin
        (* if u was matched, the recursive call found r' a new partner
           already, so stealing u is safe *)
        Chunked.set t.left_to u r;
        true
      end
      else search t r (i + 1) stop
    end
  end

(* One search rooted at the free right vertex [r]. *)
let augment_from t r =
  t.clock <- t.clock + 1;
  Ivec.clear t.trail;
  let grew =
    search t r (Chunked.get t.offsets r) (Chunked.get t.offsets (r + 1))
  in
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
      Chunked.set t.stamp (Ivec.get t.trail k) dead
    done
  end;
  grew

let augment t =
  let gained = ref 0 in
  for r = t.searched to n_right t - 1 do
    if augment_from t r then incr gained
  done;
  t.searched <- n_right t;
  !gained

let is_dead t u =
  if u < 0 || u >= n_left t then
    invalid_arg "Augment.is_dead: left vertex out of range";
  Chunked.get t.stamp u = dead

let graph t =
  let g = Bipartite.create ~n_left:(n_left t) ~n_right:(n_right t) in
  for r = 0 to n_right t - 1 do
    for i = Chunked.get t.offsets r to Chunked.get t.offsets (r + 1) - 1 do
      ignore (Bipartite.add_edge g ~left:(Chunked.get t.lefts i) ~right:r : int)
    done
  done;
  g

(* A search matches a left vertex through the first edge to it in the
   root's column (the stamp skips any later one), so the matched edge
   is recovered by a scan of that column. *)
let matching t =
  let nl = n_left t in
  let m =
    {
      Matching.left_to = Array.make nl (-1);
      right_to = Array.make (n_right t) (-1);
      left_edge = Array.make nl (-1);
    }
  in
  for u = 0 to nl - 1 do
    let r = Chunked.get t.left_to u in
    if r >= 0 then begin
      let i = ref (Chunked.get t.offsets r) in
      while Chunked.get t.lefts !i <> u do incr i done;
      m.left_to.(u) <- r;
      m.right_to.(r) <- u;
      m.left_edge.(u) <- !i
    end
  done;
  m
