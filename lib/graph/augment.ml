module Ivec = Prelude.Ivec

(* Incremental maximum matching on a bipartite graph that grows one
   right vertex at a time, each arriving together with all its edges,
   holding only the part of the graph a later search can still reach.

   The structure owns the graph, stored the way it is appended: a
   right-grouped CSR.  [lefts] holds the left endpoint of every edge,
   column after column, so an edge id is its position; [offsets] holds
   one boundary per right vertex.  Maximality is restored after a batch
   of columns by Kuhn-style augmenting-path searches rooted at the
   freshly added (free) right vertices.

   Why roots on the right suffice: every augmenting path in a bipartite
   graph has exactly one free endpoint on each side.  If the matching was
   maximum before the appends and every new edge is incident to a new
   right vertex (which [add_columns] makes the only possible append: a
   round's slots arrive together with all edges into them), then any
   augmenting path must use a new edge, whose new right endpoint is free
   and therefore an endpoint of the path.  Old free right vertices stay
   dead: an augmenting path rooted at one could not absorb any new edge,
   hence it would have existed before the append.  A search enters a
   right vertex only along a matching edge, so a right vertex whose own
   search failed is never matched later: the partner map on the right
   side follows from [left_to] and is not stored.

   Saturation pruning (DESIGN §4.3.1).  A left vertex visited by a
   failed augmenting search is matched in every maximum matching from
   then on, whatever is appended later (the lemma is in DESIGN), so it
   lies on no augmenting path: it is marked dead and every later search
   skips it.  Each left vertex is visited by at most one failed search.

   Epochs and freezing (DESIGN §4.3.1).  Each left vertex is open
   through the epoch it was given ([last]); only open lefts may be
   named by a column.  [settle] ends an epoch and keeps the invariant

     no alternating walk from a matched open left (its matching edge,
     then any edge, then a matching edge, ...) ends at a free closed
     left,

   by one search from every matched open left for a free closed one;
   each walk found is flipped (the root goes free, the closed left is
   matched: the size is unchanged).  Such a walk never passes a dead
   vertex (flipping its tail would free it at the same size), so these
   searches skip dead vertices too.  Under the invariant every search,
   of either kind, stays inside the region reachable from the open
   lefts along such walks without entering a dead vertex, and that
   region only shrinks apart from new vertices: everything outside it
   keeps its partner for good.  The failed searches of a settle pass
   cover the region, so they also yield the oldest column a later
   search can scan and the oldest left vertex such a column names
   ([col_min]); the storage below them is released.

   Stamps.  An augmenting search stamps what it visits with a fresh
   clock, and a failed one re-stamps its visits [dead].  A settle pass
   reserves one clock per root and a fail mark above them all; a failed
   search re-stamps its visits with the mark.  One test, [stamp >=
   clock], then skips what the running search has seen, every dead
   vertex, and what a failed search of the same settle pass has seen.
   The last is sound: a failed search's visits form a set closed under
   the search's moves with no target in it, and a later flip of a path
   that avoids the set (it must, the set is stamped) leaves the set's
   matching edges, hence its closure, unchanged. *)

(* A growable int vector indexed by global position that keeps only a
   suffix: [release v i] drops every position below [i].  A push that
   finds the array full moves the kept suffix to the front: in place
   while it fills at most half the array, else into a fresh array of
   [room kept] words.  The kept length can swing from nothing (an empty
   region) to thousands within a few epochs, so shrinking follows a
   slowly decaying [peak] of it: a release shrinks the array to [room
   peak] once it is more than four times that.  The array thus tracks
   what has been kept lately, not everything ever pushed, without
   reallocating on every swing.  The first array has 32 words, so a
   small graph never moves; every later one is above [Max_young_wosize]
   (256 words) and goes straight to the major heap: a feed allocates
   nothing on the minor heap. *)
module Suffix = struct
  type t = {
    mutable data : int array;
    mutable off : int; (* position of data.(0) *)
    mutable lo : int; (* first kept position, >= off *)
    mutable len : int; (* positions pushed so far *)
    mutable peak : int; (* kept length, maximum decaying by 1/8 a release *)
  }

  let room kept = (2 * kept) + 257

  let create () =
    { data = Array.make 32 0; off = 0; lo = 0; len = 0; peak = 0 }
  let length v = v.len
  let first v = v.lo
  let get v i = v.data.(i - v.off)
  let set v i x = v.data.(i - v.off) <- x

  let move v size =
    let a = Array.make size 0 in
    Array.blit v.data (v.lo - v.off) a 0 (v.len - v.lo);
    v.data <- a;
    v.off <- v.lo

  let release v i =
    if i > v.lo then begin
      v.lo <- min i v.len;
      v.peak <- max (v.len - v.lo) (v.peak - (v.peak / 8));
      if Array.length v.data > 4 * room v.peak then move v (room v.peak)
    end

  (* make room for [extra] more positions *)
  let reserve v extra =
    let cap = Array.length v.data in
    if v.len - v.off + extra > cap then begin
      let need = v.len - v.lo + extra in
      if 2 * need <= cap then begin
        Array.blit v.data (v.lo - v.off) v.data 0 (v.len - v.lo);
        v.off <- v.lo
      end
      else move v (room need);
      if need > v.peak then v.peak <- need
    end

  let push v x =
    reserve v 1;
    v.data.(v.len - v.off) <- x;
    v.len <- v.len + 1

  (* push [src.(pos) .. src.(pos + len - 1)] *)
  let append v src ~pos ~len =
    reserve v len;
    Array.blit src pos v.data (v.len - v.off) len;
    v.len <- v.len + len
end

type search_stats = {
  searches : int;
  successes : int;
  warm_hits : int;
  visited : int;
  failed_visits : int;
  flips : int;
  settle_visits : int;
}

(* [left_to] of a free left vertex *)
let free = -1

(* [stamp] of a dead left vertex: above every clock, so "visited by
   this search, failed in this pass, or dead" is one test *)
let dead = max_int

type t = {
  lefts : Suffix.t; (* edge id -> left endpoint, grouped by right *)
  offsets : Suffix.t; (* right r owns edge ids offsets.(r) .. offsets.(r+1)-1 *)
  col_min : Suffix.t; (* per right vertex: the oldest left in its column *)
  info : Suffix.t;
      (* per left vertex [u], at [3u .. 3u + 2]: the matched right vertex
         or [free], the visit clock, fail mark or [dead], and the last
         epoch [u] is open in; side by side, so a search that probes a
         left reads one place in memory, not three arrays *)
  mutable opens : int array; (* open left vertices, ascending *)
  mutable n_open : int;
  mutable frozen_below : int;
      (* the last complete settle pass froze every left below it *)
  mutable mapped : int; (* the epoch of the last complete settle pass *)
  mutable epoch : int;
  mutable searched : int; (* right vertices [0, searched) had their search *)
  mutable clock : int;
  trail : Ivec.t; (* left vertices stamped by the running search *)
  mutable size : int;
  (* plain counters (no locking: callers own the structure), read out by
     the observability layer via [stats] *)
  mutable searches : int;
  mutable successes : int;
  mutable warm_hits : int;
  mutable visited : int;
  mutable failed_visits : int;
  mutable flips : int;
  mutable settle_visits : int;
}

let create () =
  let offsets = Suffix.create () in
  Suffix.push offsets 0;
  {
    lefts = Suffix.create ();
    offsets;
    col_min = Suffix.create ();
    info = Suffix.create ();
    opens = [||];
    n_open = 0;
    frozen_below = 0;
    mapped = 0;
    epoch = 0;
    searched = 0;
    clock = 0;
    trail = Ivec.create ~capacity:64 ();
    size = 0;
    searches = 0;
    successes = 0;
    warm_hits = 0;
    visited = 0;
    failed_visits = 0;
    flips = 0;
    settle_visits = 0;
  }

let left_to t u = Suffix.get t.info (3 * u)
let set_left_to t u r = Suffix.set t.info (3 * u) r
let stamp t u = Suffix.get t.info ((3 * u) + 1)
let set_stamp t u c = Suffix.set t.info ((3 * u) + 1) c
let last t u = Suffix.get t.info ((3 * u) + 2)
let n_left t = Suffix.length t.info / 3
let n_right t = Suffix.length t.offsets - 1
let n_edges t = Suffix.length t.lefts
let size t = t.size
let epoch t = t.epoch
let first_left t = Suffix.first t.info / 3
let first_right t = Suffix.first t.offsets
let n_open t = t.n_open

let open_left t k =
  if k < 0 || k >= t.n_open then invalid_arg "Augment.open_left";
  t.opens.(k)

let add_left t ~last =
  if last < t.epoch then
    invalid_arg "Augment.add_left: last epoch already over";
  let u = n_left t in
  Suffix.push t.info free;
  Suffix.push t.info 0;
  Suffix.push t.info last;
  if t.n_open = Array.length t.opens then begin
    let a = Array.make (max 16 (2 * t.n_open)) 0 in
    Array.blit t.opens 0 a 0 t.n_open;
    t.opens <- a
  end;
  t.opens.(t.n_open) <- u;
  t.n_open <- t.n_open + 1;
  u

let add_columns t lefts ~ends ~count =
  if count < 0 || count > Array.length ends then
    invalid_arg "Augment.add_columns: count out of bounds";
  let lo = first_left t and nl = n_left t and stop = ref 0 in
  for k = 0 to count - 1 do
    if ends.(k) < !stop || ends.(k) > Array.length lefts then
      invalid_arg "Augment.add_columns: column ends out of bounds";
    for i = !stop to ends.(k) - 1 do
      let u = lefts.(i) in
      if u < lo || u >= nl || last t u < t.epoch then
        invalid_arg "Augment.add_columns: left vertex not held or closed"
    done;
    stop := ends.(k)
  done;
  (* every column checked: append them all *)
  let base = n_edges t and start = ref 0 in
  Suffix.append t.lefts lefts ~pos:0 ~len:!stop;
  for k = 0 to count - 1 do
    let oldest = ref nl in
    for i = !start to ends.(k) - 1 do
      if lefts.(i) < !oldest then oldest := lefts.(i)
    done;
    Suffix.push t.offsets (base + ends.(k));
    Suffix.push t.col_min !oldest;
    start := ends.(k)
  done

let stats t =
  {
    searches = t.searches;
    successes = t.successes;
    warm_hits = t.warm_hits;
    visited = t.visited;
    failed_visits = t.failed_visits;
    flips = t.flips;
    settle_visits = t.settle_visits;
  }

let partner t u =
  if u < first_left t || u >= n_left t then
    invalid_arg "Augment.partner: left vertex not held";
  left_to t u

(* Kuhn DFS from right vertex [r] over its edge ids [i, stop), looking
   for a free left vertex along an alternating path ([closed_only]: a
   free closed one, for [settle]); flips the path in place on success.
   Top-level recursion, no closures: a search allocates nothing unless
   [trail] has to grow. *)
let rec search t r i stop closed_only =
  if i >= stop then false
  else begin
    let u = Suffix.get t.lefts i in
    if stamp t u >= t.clock then search t r (i + 1) stop closed_only
    else begin
      set_stamp t u t.clock;
      Ivec.push t.trail u;
      let r' = left_to t u in
      if
        if r' < 0 then (not closed_only) || last t u < t.epoch
        else
          search t r' (Suffix.get t.offsets r')
            (Suffix.get t.offsets (r' + 1)) closed_only
      then begin
        (* if u was matched, the recursive call found r' a new partner
           already, so stealing u is safe *)
        set_left_to t u r;
        true
      end
      else search t r (i + 1) stop closed_only
    end
  end

(* A free closed left in the edge ids [i, stop), or -1. *)
let rec free_closed t i stop =
  if i >= stop then -1
  else begin
    let u = Suffix.get t.lefts i in
    if left_to t u < 0 && last t u < t.epoch then u
    else free_closed t (i + 1) stop
  end

(* A settle search from the partner [r] of a matched open left.  On a
   paper-graph stream the lefts that just closed are the oldest live
   requests, which a column lists after the newer ones ({!Opt_stream}
   probes newest first), so the root's column is first scanned for one:
   most walks end at the root's own slot, where a plain DFS would first
   detour through every matched left listed before it.  Deeper columns
   are not scanned twice: on zoo vod that cuts the entries a pass reads
   by a third. *)
let rescue t r =
  let i = Suffix.get t.offsets r and stop = Suffix.get t.offsets (r + 1) in
  let u = free_closed t i stop in
  if u >= 0 then begin
    set_stamp t u t.clock;
    Ivec.push t.trail u;
    set_left_to t u r;
    true
  end
  else search t r i stop true

let mark_trail t mark =
  for k = 0 to Ivec.length t.trail - 1 do
    set_stamp t (Ivec.get t.trail k) mark
  done

(* One search rooted at the free right vertex [r]. *)
let augment_from t r =
  t.clock <- t.clock + 1;
  Ivec.clear t.trail;
  let grew =
    search t r (Suffix.get t.offsets r) (Suffix.get t.offsets (r + 1)) false
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
       header): no later walk of either kind can pass through it *)
    t.failed_visits <- t.failed_visits + visits;
    mark_trail t dead
  end;
  grew

let augment t =
  let gained = ref 0 in
  for r = t.searched to n_right t - 1 do
    if augment_from t r then incr gained
  done;
  t.searched <- n_right t;
  !gained

(* Close the lefts whose last epoch is the one ending, keeping the
   open list ascending, and count the free ones: under the invariant
   they are the only free closed lefts a walk can reach. *)
let close_epoch t =
  let kept = ref 0 and targets = ref 0 in
  for k = 0 to t.n_open - 1 do
    let u = t.opens.(k) in
    if last t u > t.epoch then begin
      t.opens.(!kept) <- u;
      incr kept
    end
    else if left_to t u < 0 then incr targets
  done;
  t.n_open <- !kept;
  t.epoch <- t.epoch + 1;
  !targets

(* A settle pass that finds no target still maps the region; it is run
   anyway when the last complete pass is this many epochs old. *)
let remap_every = 8

let settle t =
  let targets = ref (close_epoch t) in
  (* a left is released one settle after it froze, so its final partner
     can be read in between *)
  Suffix.release t.info (3 * t.frozen_below);
  let remap = t.epoch - t.mapped >= remap_every in
  let base = t.clock and roots = t.n_open in
  let mark = base + roots + 1 in
  (* The failed searches of a complete pass cover the region.  A later
     search enters only the columns of their matched vertices and reads
     the lefts those columns name.  Without targets a pass only maps
     the region, so it stops once the targets are used up, unless a
     remap is due. *)
  let low_left = ref (if roots > 0 then t.opens.(0) else n_left t)
  and low_right = ref (n_right t) in
  let k = ref 0 in
  while !k < roots && (remap || !targets > 0) do
    let u = t.opens.(!k) in
    let r = left_to t u in
    t.clock <- base + !k + 1;
    if r >= 0 && stamp t u < t.clock then begin
      Ivec.clear t.trail;
      set_stamp t u t.clock;
      Ivec.push t.trail u;
      let flipped = rescue t r in
      t.settle_visits <- t.settle_visits + Ivec.length t.trail;
      if flipped then begin
        set_left_to t u free;
        decr targets;
        t.flips <- t.flips + 1
      end
      else begin
        mark_trail t mark;
        for j = 0 to Ivec.length t.trail - 1 do
          let p = left_to t (Ivec.get t.trail j) in
          if p >= 0 then begin
            if p < !low_right then low_right := p;
            let oldest = Suffix.get t.col_min p in
            if oldest < !low_left then low_left := oldest
          end
        done
      end
    end;
    incr k
  done;
  t.clock <- mark;
  if !k = roots then begin
    t.mapped <- t.epoch;
    t.frozen_below <- !low_left;
    Suffix.release t.offsets !low_right;
    Suffix.release t.col_min !low_right;
    Suffix.release t.lefts (Suffix.get t.offsets (first_right t))
  end

let is_dead t u =
  if u < first_left t || u >= n_left t then
    invalid_arg "Augment.is_dead: left vertex not held";
  stamp t u = dead
