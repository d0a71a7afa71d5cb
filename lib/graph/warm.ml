(* Allocation-free replica of Tiered.solve over a reusable flat arena.

   The algorithm is Tiered's phase rule: one residual SPFA sweep from all
   free left vertices, then, while the best free right label [g] is
   lexicographically positive, vertex-disjoint augmenting paths of gain
   [g] that are tight against the sweep's labels, one backward
   depth-first search per free right vertex labelled [g] in ascending
   index.  It visits vertices and edges in exactly Tiered's order (FIFO
   queue, per-left edges in insertion order, per-right edges in
   ascending id, the same visited marks), so for any graph it produces
   the same matching edge-for-edge.  What changes is the representation:
   a left-grouped CSR with a flat weight array replaces Bipartite +
   Lexvec.t per edge, a right-grouped CSR of the same edges (rebuilt by
   a counting sort at solve time) drives the backward searches, distance
   labels live in a flat int matrix guarded by visit stamps instead of
   [Lexvec.t option] arrays, the queue is an int ring buffer and the
   search recursion is an explicit stack.  A solver value is reused
   round after round; steady-state solving allocates nothing: every
   helper below is a closed top-level function over [int array]
   arguments, so no closure is built per call and comparisons stay
   monomorphic.

   Packed labels.  The [k] weight tiers are set one int each, but [solve]
   packs them into [kp <= k] machine words by balanced mixed radix and
   runs the whole phase rule on words, so a label is one word wherever
   the round is small enough (a balance round at n = 64, d = 4 is).  The
   packing is exact:

   - Every label is the gain of a simple alternating path from a free
     left vertex.  A sweep sets a label only on a strict improvement, and
     the matching it runs on is extreme (maximum-weight for its size; the
     phase rule keeps it so), so its residual digraph has no positive
     cycle.  A label's predecessor chain passing twice through a vertex
     [x] would close a cycle of gain <= 0 onto a value [x] already held,
     which is no strict improvement; so the chain is a simple path of at
     most [nv - 1] arcs ([nv = nl + nr]), and tier [j] of any label is
     within [(nv - 1) * W_j], where [W_j] is the tier's largest |weight|.
     A candidate or a tight-arc sum adds one more arc: within
     [nv * W_j].
   - Tier [j] gets radix [R_j = 2 (nv + 1) W_j + 1], so every value the
     solver forms, and the difference of any two, lies strictly inside
     its digit range.  Tiers are grouped from the minor end while the
     product of a word's radices stays <= 2^61; a word holds
     [sum_j x_j * P_j] with [P_j] the product of the radices below [j]
     in that word.  A zero tier ([W_j = 0], e.g. the bias tier under a
     neutral bias) has radix 1 and vanishes.  A tier whose own radix
     exceeds 2^61 takes a word to itself with place value 1: the
     unpacked representation.
   - Packing is linear, so a sum of packed vectors is the packed sum and
     no word overflows (|word| < 2^60).  With every digit of a
     difference below its radix, the sign of a word difference is the
     sign of its most significant non-zero tier, so lexicographic order
     and equality on words are those on tier vectors.  Every comparison,
     tight-arc test and hence every visiting decision is Tiered's. *)

type stats = {
  sweeps : int;
  augments : int;
  warm_hits : int;
  words : int;
}

type t = {
  mutable k : int;  (* weight-vector length (uniform per round) *)
  mutable kp : int; (* packed width: words per label, set by [solve] *)
  mutable nl : int;
  mutable nr : int;
  mutable ne : int;
  (* CSR: edges of left [u] are loff.(u) .. loff.(u+1)-1, in insertion
     order; loff.(nl) is fixed up at solve time *)
  mutable loff : int array;
  mutable esrc : int array;
  mutable edst : int array;
  mutable ew : int array; (* edge id e, tier j -> ew.(e*k + j) *)
  (* packing, rebuilt by [solve]: word i of edge e's packed weight
     ewp.(e*kp + i) is the sum of ew.(e*k + j) * place.(j) over tiers
     j = wfirst.(i) .. wfirst.(i+1)-1 *)
  mutable wmax : int array;  (* tier j -> largest |weight| set this
                                round: a bound, an overwritten weight
                                still counts *)
  mutable wfirst : int array;
  mutable place : int array; (* 0 for a zero tier *)
  mutable ewp : int array;
  (* right CSR, built at solve time: edges into right [v] are
     redge.(roff.(v)) .. redge.(roff.(v+1)-1), ascending *)
  mutable roff : int array;
  mutable redge : int array;
  (* matching *)
  mutable left_to_ : int array;
  mutable left_edge_ : int array;
  mutable right_to_ : int array;
  (* SPFA scratch; vertex code = u for left, nl + v for right *)
  mutable dist : int array;   (* code c, word i -> dist.(c*kp + i) *)
  mutable have : int array;   (* stamp: dist slice valid this sweep *)
  mutable inq : int array;    (* stamp: code currently queued *)
  mutable queue : int array;  (* ring buffer, capacity nl + nr + 1 *)
  mutable qhead : int;
  mutable qtail : int;
  mutable clock : int;        (* sweep stamp; strictly increasing *)
  mutable cand : int array;   (* one candidate distance label *)
  (* phase scratch *)
  mutable vis : int array;    (* stamp: left visited by a search *)
  mutable stk_v : int array;  (* search stack: right vertex per frame *)
  mutable stk_pos : int array; (* its cursor into redge *)
  mutable sweeps : int;
  mutable augments : int;
  mutable warm_hits : int;
}

let create () =
  {
    k = 1;
    kp = 1;
    nl = 0;
    nr = 0;
    ne = 0;
    loff = Array.make 8 0;
    esrc = [||];
    edst = [||];
    ew = [||];
    wmax = [||];
    wfirst = [||];
    place = [||];
    ewp = [||];
    roff = [||];
    redge = [||];
    left_to_ = [||];
    left_edge_ = [||];
    right_to_ = [||];
    dist = [||];
    have = [||];
    inq = [||];
    queue = [||];
    qhead = 0;
    qtail = 0;
    clock = 0;
    cand = Array.make 8 0;
    vis = [||];
    stk_v = [||];
    stk_pos = [||];
    sweeps = 0;
    augments = 0;
    warm_hits = 0;
  }

let stats t =
  {
    sweeps = t.sweeps;
    augments = t.augments;
    warm_hits = t.warm_hits;
    words = t.kp;
  }

(* Grow-only capacity management.  Stamp arrays zero-fill their tail so
   stale cells can never collide with a live clock value. *)
let ensure a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n ((2 * Array.length a) + 8)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let begin_round t ~n_right ~k =
  if n_right < 0 then invalid_arg "Warm.begin_round: negative n_right";
  if k < 1 then invalid_arg "Warm.begin_round: k must be >= 1";
  t.k <- k;
  t.nl <- 0;
  t.nr <- n_right;
  t.ne <- 0;
  t.cand <- ensure t.cand k 0;
  t.wmax <- ensure t.wmax k 0;
  Array.fill t.wmax 0 k 0;
  t.right_to_ <- ensure t.right_to_ n_right (-1);
  Array.fill t.right_to_ 0 n_right (-1)

let add_left t =
  let u = t.nl in
  t.loff <- ensure t.loff (u + 2) 0;
  t.loff.(u) <- t.ne;
  t.left_to_ <- ensure t.left_to_ (u + 1) (-1);
  t.left_edge_ <- ensure t.left_edge_ (u + 1) (-1);
  t.left_to_.(u) <- -1;
  t.left_edge_.(u) <- -1;
  t.nl <- u + 1;
  u

(* [esrc] and [edst] always grow together, so one length test covers
   both. *)
let grow_edges t ne =
  t.esrc <- ensure t.esrc ne 0;
  t.edst <- ensure t.edst ne 0;
  t.ew <- ensure t.ew (ne * t.k) 0

let add_edge t ~right =
  if t.nl = 0 then invalid_arg "Warm.add_edge: no left vertex yet";
  if right < 0 || right >= t.nr then
    invalid_arg "Warm.add_edge: right vertex out of range";
  let e = t.ne and k = t.k in
  let off = e * k in
  if e >= Array.length t.esrc || off + k > Array.length t.ew then
    grow_edges t (e + 1);
  t.esrc.(e) <- t.nl - 1;
  t.edst.(e) <- right;
  let ew = t.ew in
  for i = off to off + k - 1 do
    Array.unsafe_set ew i 0
  done;
  t.ne <- e + 1;
  e

let set_weight t e j v =
  if e < 0 || e >= t.ne then invalid_arg "Warm.set_weight: bad edge";
  if j < 0 || j >= t.k then invalid_arg "Warm.set_weight: bad tier";
  t.ew.((e * t.k) + j) <- v;
  let a = abs v in
  if a > t.wmax.(j) then t.wmax.(j) <- a

let n_left t = t.nl
let left_to t u = t.left_to_.(u)
let left_edge t u = t.left_edge_.(u)
let right_to t v = t.right_to_.(v)

(* Lexicographic tests on [k]-slices, tiers [j ..].  Closed top-level
   functions: a local [let rec] would allocate a closure per call. *)

(* a.(oa ..) > b.(ob ..) *)
let rec lex_gt (a : int array) oa (b : int array) ob k j =
  if j >= k then false
  else
    let x = Array.unsafe_get a (oa + j) and y = Array.unsafe_get b (ob + j) in
    if x <> y then x > y else lex_gt a oa b ob k (j + 1)

(* a.(oa ..) = b.(ob ..) *)
let rec lex_eq (a : int array) oa (b : int array) ob k j =
  j >= k
  || Array.unsafe_get a (oa + j) = Array.unsafe_get b (ob + j)
     && lex_eq a oa b ob k (j + 1)

(* a.(oa ..) > 0 *)
let rec lex_pos (a : int array) oa k j =
  if j >= k then false
  else
    let x = Array.unsafe_get a (oa + j) in
    if x <> 0 then x > 0 else lex_pos a oa k (j + 1)

(* Tight arcs: d.(oa ..) + w.(ow ..) = d.(ob ..), resp. with [-]. *)
let rec tight_add (d : int array) oa (w : int array) ow ob k j =
  j >= k
  || Array.unsafe_get d (oa + j) + Array.unsafe_get w (ow + j)
     = Array.unsafe_get d (ob + j)
     && tight_add d oa w ow ob k (j + 1)

let rec tight_sub (d : int array) oa (w : int array) ow ob k j =
  j >= k
  || Array.unsafe_get d (oa + j) - Array.unsafe_get w (ow + j)
     = Array.unsafe_get d (ob + j)
     && tight_sub d oa w ow ob k (j + 1)

let push t code =
  if t.inq.(code) <> t.clock then begin
    t.inq.(code) <- t.clock;
    t.queue.(t.qtail) <- code;
    let q = t.qtail + 1 in
    t.qtail <- (if q > t.nl + t.nr then 0 else q)
  end

(* One SPFA sweep; mirrors Tiered.spfa exactly (same FIFO order, same
   strict-improvement relaxations).  Results live in [dist] guarded by
   the [have] stamp. *)
let spfa t =
  let nl = t.nl and nr = t.nr and k = t.kp in
  let nv = nl + nr in
  t.clock <- t.clock + 1;
  t.qhead <- 0;
  t.qtail <- 0;
  let clock = t.clock in
  let qcap = nv + 1 in
  let dist = t.dist and have = t.have and inq = t.inq in
  let queue = t.queue and ew = t.ewp and cand = t.cand in
  for u = 0 to nl - 1 do
    if t.left_to_.(u) < 0 then begin
      for i = u * k to (u * k) + k - 1 do
        Array.unsafe_set dist i 0
      done;
      have.(u) <- clock;
      push t u
    end
  done;
  let budget = (nv + 1) * (t.ne + 1) * 2 in
  let steps = ref 0 in
  while t.qhead <> t.qtail do
    incr steps;
    if !steps > budget then
      failwith "Warm.spfa: relaxation budget exceeded (positive cycle?)";
    let code = queue.(t.qhead) in
    let q = t.qhead + 1 in
    t.qhead <- (if q = qcap then 0 else q);
    inq.(code) <- 0;
    if code < nl then begin
      (* left vertex: relax along its non-matching edges *)
      let u = code in
      if have.(u) = clock then begin
        let off_u = u * k in
        for id = t.loff.(u) to t.loff.(u + 1) - 1 do
          if t.left_edge_.(u) <> id then begin
            let off_e = id * k in
            for j = 0 to k - 1 do
              Array.unsafe_set cand j
                (Array.unsafe_get dist (off_u + j)
                 + Array.unsafe_get ew (off_e + j))
            done;
            let code_v = nl + t.edst.(id) in
            let off_v = code_v * k in
            if have.(code_v) <> clock || lex_gt cand 0 dist off_v k 0 then begin
              for j = 0 to k - 1 do
                Array.unsafe_set dist (off_v + j) (Array.unsafe_get cand j)
              done;
              have.(code_v) <- clock;
              push t code_v
            end
          end
        done
      end
    end
    else begin
      (* right vertex: relax along its matching edge (if matched) *)
      let u = t.right_to_.(code - nl) in
      if have.(code) = clock && u >= 0 then begin
        let off_v = code * k and off_u = u * k
        and off_e = t.left_edge_.(u) * k in
        for j = 0 to k - 1 do
          Array.unsafe_set cand j
            (Array.unsafe_get dist (off_v + j)
             - Array.unsafe_get ew (off_e + j))
        done;
        if have.(u) <> clock || lex_gt cand 0 dist off_u k 0 then begin
          for j = 0 to k - 1 do
            Array.unsafe_set dist (off_u + j) (Array.unsafe_get cand j)
          done;
          have.(u) <- clock;
          push t u
        end
      end
    end
  done

(* Smallest-index free right vertex with the best label, or -1. *)
let best_target t =
  let nl = t.nl and k = t.kp and dist = t.dist in
  let best = ref (-1) in
  for v = 0 to t.nr - 1 do
    if t.right_to_.(v) < 0 && t.have.(nl + v) = t.clock then begin
      if !best < 0 || lex_gt dist ((nl + v) * k) dist ((nl + !best) * k) k 0
      then best := v
    end
  done;
  !best

(* Right-grouped CSR of the round's edges by counting sort; iterating
   edges downwards leaves each group in ascending id. *)
let build_right_csr t =
  let nr = t.nr and roff = t.roff and redge = t.redge in
  Array.fill roff 0 (nr + 1) 0;
  for e = 0 to t.ne - 1 do
    let v = t.edst.(e) in
    roff.(v) <- roff.(v) + 1
  done;
  for v = 1 to nr - 1 do
    roff.(v) <- roff.(v) + roff.(v - 1)
  done;
  for e = t.ne - 1 downto 0 do
    let v = t.edst.(e) in
    roff.(v) <- roff.(v) - 1;
    redge.(roff.(v)) <- e
  done;
  roff.(nr) <- t.ne

(* Tiered.search with an explicit stack: frame [i] is a right vertex
   whose cursor rests on the edge the search descended through.  On
   reaching a free left vertex the frames' edges are the path's
   unmatched edges, and matching each to its frame flips the path. *)
let search t target =
  let nl = t.nl and k = t.kp and clock = t.clock in
  let dist = t.dist and ew = t.ewp and have = t.have and vis = t.vis in
  let roff = t.roff and redge = t.redge in
  let stk_v = t.stk_v and stk_pos = t.stk_pos in
  stk_v.(0) <- target;
  stk_pos.(0) <- roff.(target);
  let top = ref 0 and found = ref false in
  while (not !found) && !top >= 0 do
    let v = stk_v.(!top) and pos = stk_pos.(!top) in
    if pos >= roff.(v + 1) then begin
      decr top;
      if !top >= 0 then stk_pos.(!top) <- stk_pos.(!top) + 1
    end
    else begin
      let e = redge.(pos) in
      let u = t.esrc.(e) in
      if
        vis.(u) <> clock
        && t.left_edge_.(u) <> e
        && have.(u) = clock
        && tight_add dist (u * k) ew (e * k) ((nl + v) * k) k 0
      then begin
        vis.(u) <- clock;
        let e' = t.left_edge_.(u) in
        if e' < 0 then found := true
        else begin
          let v' = t.edst.(e') in
          if
            have.(nl + v') = clock
            && tight_sub dist ((nl + v') * k) ew (e' * k) (u * k) k 0
          then begin
            incr top;
            stk_v.(!top) <- v';
            stk_pos.(!top) <- roff.(v')
          end
          else stk_pos.(!top) <- pos + 1
        end
      end
      else stk_pos.(!top) <- pos + 1
    end
  done;
  if !found then begin
    for i = 0 to !top do
      let v = stk_v.(i) and e = redge.(stk_pos.(i)) in
      let u = t.esrc.(e) in
      t.left_to_.(u) <- v;
      t.left_edge_.(u) <- e;
      t.right_to_.(v) <- u
    done;
    t.augments <- t.augments + 1;
    if !top = 0 then t.warm_hits <- t.warm_hits + 1
  end

(* One phase, as Tiered.phase: sweep, then search from every free right
   vertex whose label equals the best one.  False once the best gain is
   not positive. *)
let phase t =
  spfa t;
  t.sweeps <- t.sweeps + 1;
  let best = best_target t in
  let k = t.kp and nl = t.nl and dist = t.dist in
  if best < 0 || not (lex_pos dist ((nl + best) * k) k 0) then false
  else begin
    let off_g = (nl + best) * k in
    for v = best to t.nr - 1 do
      if
        t.right_to_.(v) < 0
        && t.have.(nl + v) = t.clock
        && lex_eq dist ((nl + v) * k) dist off_g k 0
      then search t v
    done;
    true
  end

(* Largest radix product of one word: a packed value then lies within
   +-2^60, and so does the sum of two. *)
let word_limit = 1 lsl 61

(* Choose this round's packing (see the header) and write every edge's
   packed weight into [ewp]. *)
let pack t =
  let k = t.k and ne = t.ne and ew = t.ew in
  t.wfirst <- ensure t.wfirst (k + 1) 0;
  t.place <- ensure t.place k 0;
  let wmax = t.wmax and wfirst = t.wfirst and place = t.place in
  (* group tiers from the minor end: [w] counts words from the minor
     end, [prod] is the radix product of word [w] so far (1 while it is
     empty: a non-zero tier's radix is at least 3), and wfirst.(w) is
     its most major tier so far.  A zero tier joins word [w] at place
     0, so every word is a contiguous run of tiers. *)
  let span = 2 * (t.nl + t.nr + 1) in
  let w = ref 0 and prod = ref 1 in
  for j = k - 1 downto 0 do
    let m = wmax.(j) in
    if m = 0 then place.(j) <- 0
    else if m > (word_limit - 1) / span then begin
      (* radix above the limit: a word of its own, unpacked, and full,
         so the next non-zero tier opens a new word *)
      if !prod > 1 then incr w;
      place.(j) <- 1;
      prod := word_limit
    end
    else begin
      let r = (span * m) + 1 in
      if !prod > word_limit / r then begin
        incr w;
        prod := 1
      end;
      place.(j) <- !prod;
      prod := !prod * r
    end;
    wfirst.(!w) <- j
  done;
  let kp = max 1 (if !prod > 1 then !w + 1 else !w) in
  (* number words from the major end, the order labels compare in: the
     major word also takes the zero tiers above it *)
  for i = 1 to (kp / 2) do
    let x = wfirst.(i - 1) in
    wfirst.(i - 1) <- wfirst.(kp - i);
    wfirst.(kp - i) <- x
  done;
  wfirst.(0) <- 0;
  wfirst.(kp) <- k;
  t.kp <- kp;
  t.ewp <- ensure t.ewp (ne * kp) 0;
  let ewp = t.ewp in
  for e = 0 to ne - 1 do
    let off = e * k and offp = e * kp in
    for i = 0 to kp - 1 do
      let acc = ref 0 in
      for j = Array.unsafe_get wfirst i to Array.unsafe_get wfirst (i + 1) - 1
      do
        acc := !acc + (Array.unsafe_get ew (off + j) * Array.unsafe_get place j)
      done;
      Array.unsafe_set ewp (offp + i) !acc
    done
  done

let solve t =
  pack t;
  let nv = t.nl + t.nr in
  t.loff <- ensure t.loff (t.nl + 1) 0;
  t.loff.(t.nl) <- t.ne;
  t.roff <- ensure t.roff (t.nr + 1) 0;
  t.redge <- ensure t.redge t.ne 0;
  build_right_csr t;
  t.dist <- ensure t.dist (nv * t.kp) 0;
  t.have <- ensure t.have nv 0;
  t.inq <- ensure t.inq nv 0;
  t.queue <- ensure t.queue (nv + 1) 0;
  t.vis <- ensure t.vis t.nl 0;
  t.stk_v <- ensure t.stk_v (nv + 1) 0;
  t.stk_pos <- ensure t.stk_pos (nv + 1) 0;
  while phase t do () done
