(* Allocation-free replica of Tiered.solve over a reusable flat arena.

   The algorithm is the same residual-graph SPFA as Tiered — one sweep
   from all free left vertices, augment along the maximum-gain path while
   the gain is lexicographically positive — and it visits vertices and
   edges in exactly the same order (FIFO queue, per-left edges in
   insertion order, best_target ties broken towards the smallest right
   index), so for any graph it produces the same matching edge-for-edge.
   What changes is the representation: a left-grouped CSR with a flat
   [k]-stride weight array replaces Bipartite + Lexvec.t per edge,
   distance labels live in a flat int matrix guarded by visit stamps
   instead of [Lexvec.t option] arrays, and the queue is an int ring
   buffer.  A solver value is reused round after round; steady-state
   solving allocates nothing.

   After each sweep, [best_target] scans the [nr] right vertices for
   the maximum-gain free target.  The scan is O(nr) per sweep, but the
   sweep itself already relaxes every free left vertex's edges, so the
   scan never dominates; a distance-bucketed candidate queue in its
   place measured no faster up to n = 10^4 (EXPERIMENTS.md, B.scale). *)

type stats = { sweeps : int; augments : int; warm_hits : int }

type t = {
  mutable k : int;  (* weight-vector length (uniform per round) *)
  mutable nl : int;
  mutable nr : int;
  mutable ne : int;
  (* CSR: edges of left [u] are loff.(u) .. loff.(u+1)-1, in insertion
     order; loff.(nl) is fixed up at solve time *)
  mutable loff : int array;
  mutable esrc : int array;
  mutable edst : int array;
  mutable ew : int array; (* edge id e, tier j -> ew.(e*k + j) *)
  (* matching *)
  mutable left_to_ : int array;
  mutable left_edge_ : int array;
  mutable right_to_ : int array;
  (* SPFA scratch; vertex code = u for left, nl + v for right *)
  mutable dist : int array;   (* code c, tier j -> dist.(c*k + j) *)
  mutable have : int array;   (* stamp: dist slice valid this sweep *)
  mutable inq : int array;    (* stamp: code currently queued *)
  mutable parent : int array; (* code -> edge used to reach it *)
  mutable queue : int array;  (* ring buffer, capacity nl + nr + 1 *)
  mutable qhead : int;
  mutable qtail : int;
  mutable clock : int;        (* sweep stamp; strictly increasing *)
  mutable cand : int array;   (* one candidate distance vector *)
  mutable path : int array;   (* augmenting path, edges root-to-start *)
  mutable sweeps : int;
  mutable augments : int;
  mutable warm_hits : int;
}

let create () =
  {
    k = 1;
    nl = 0;
    nr = 0;
    ne = 0;
    loff = Array.make 8 0;
    esrc = [||];
    edst = [||];
    ew = [||];
    left_to_ = [||];
    left_edge_ = [||];
    right_to_ = [||];
    dist = [||];
    have = [||];
    inq = [||];
    parent = [||];
    queue = [||];
    qhead = 0;
    qtail = 0;
    clock = 0;
    cand = Array.make 8 0;
    path = [||];
    sweeps = 0;
    augments = 0;
    warm_hits = 0;
  }

let stats t =
  { sweeps = t.sweeps; augments = t.augments; warm_hits = t.warm_hits }

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

let add_edge t ~right =
  if t.nl = 0 then invalid_arg "Warm.add_edge: no left vertex yet";
  if right < 0 || right >= t.nr then
    invalid_arg "Warm.add_edge: right vertex out of range";
  let e = t.ne in
  t.esrc <- ensure t.esrc (e + 1) 0;
  t.edst <- ensure t.edst (e + 1) 0;
  t.ew <- ensure t.ew ((e + 1) * t.k) 0;
  t.esrc.(e) <- t.nl - 1;
  t.edst.(e) <- right;
  Array.fill t.ew (e * t.k) t.k 0;
  t.ne <- e + 1;
  e

let set_weight t e j v =
  if e < 0 || e >= t.ne then invalid_arg "Warm.set_weight: bad edge";
  if j < 0 || j >= t.k then invalid_arg "Warm.set_weight: bad tier";
  t.ew.((e * t.k) + j) <- v

let n_left t = t.nl
let left_to t u = t.left_to_.(u)
let left_edge t u = t.left_edge_.(u)
let right_to t v = t.right_to_.(v)

(* dist slice at [off_a] lexicographically greater than at [off_b]? *)
let dist_gt t off_a off_b =
  let k = t.k and dist = t.dist in
  let rec go j =
    if j >= k then false
    else
      let a = Array.unsafe_get dist (off_a + j)
      and b = Array.unsafe_get dist (off_b + j) in
      if a <> b then a > b else go (j + 1)
  in
  go 0

(* One SPFA sweep; mirrors Tiered.spfa exactly (same FIFO order, same
   strict-improvement relaxations).  Returns unit; results live in
   dist/parent guarded by the [have] stamp. *)
let spfa t =
  let nl = t.nl and nr = t.nr and k = t.k in
  let nv = nl + nr in
  t.clock <- t.clock + 1;
  t.qhead <- 0;
  t.qtail <- 0;
  let clock = t.clock in
  let qcap = nv + 1 in
  let dist = t.dist and have = t.have and inq = t.inq in
  let parent = t.parent and queue = t.queue in
  let ew = t.ew and cand = t.cand in
  let push code =
    if inq.(code) <> clock then begin
      inq.(code) <- clock;
      queue.(t.qtail) <- code;
      t.qtail <- (t.qtail + 1) mod qcap
    end
  in
  for u = 0 to nl - 1 do
    if t.left_to_.(u) < 0 then begin
      Array.fill dist (u * k) k 0;
      have.(u) <- clock;
      push u
    end
  done;
  let budget = (nv + 1) * (t.ne + 1) * 2 in
  let steps = ref 0 in
  while t.qhead <> t.qtail do
    incr steps;
    if !steps > budget then
      failwith "Warm.spfa: relaxation budget exceeded (positive cycle?)";
    let code = queue.(t.qhead) in
    t.qhead <- (t.qhead + 1) mod qcap;
    inq.(code) <- 0;
    if code < nl then begin
      (* left vertex: relax along its non-matching edges *)
      let u = code in
      if have.(u) = clock then begin
        let off_u = u * k in
        let stop = if u + 1 < nl then t.loff.(u + 1) else t.ne in
        for id = t.loff.(u) to stop - 1 do
          if t.left_edge_.(u) <> id then begin
            let v = t.edst.(id) in
            let off_e = id * k in
            for j = 0 to k - 1 do
              Array.unsafe_set cand j
                (Array.unsafe_get dist (off_u + j)
                 + Array.unsafe_get ew (off_e + j))
            done;
            let code_v = nl + v in
            let off_v = code_v * k in
            let better =
              have.(code_v) <> clock
              ||
              let rec go j =
                if j >= k then false
                else
                  let c = Array.unsafe_get cand j
                  and d = Array.unsafe_get dist (off_v + j) in
                  if c <> d then c > d else go (j + 1)
              in
              go 0
            in
            if better then begin
              Array.blit cand 0 dist off_v k;
              have.(code_v) <- clock;
              parent.(code_v) <- id;
              push code_v
            end
          end
        done
      end
    end
    else begin
      (* right vertex: relax along its matching edge (if matched) *)
      let v = code - nl in
      if have.(code) = clock then begin
        let u = t.right_to_.(v) in
        if u >= 0 then begin
          let id = t.left_edge_.(u) in
          let off_v = code * k and off_u = u * k and off_e = id * k in
          for j = 0 to k - 1 do
            Array.unsafe_set cand j
              (Array.unsafe_get dist (off_v + j)
               - Array.unsafe_get ew (off_e + j))
          done;
          let better =
            have.(u) <> clock
            ||
            let rec go j =
              if j >= k then false
              else
                let c = Array.unsafe_get cand j
                and d = Array.unsafe_get dist (off_u + j) in
                if c <> d then c > d else go (j + 1)
            in
            go 0
          in
          if better then begin
            Array.blit cand 0 dist off_u k;
            have.(u) <- clock;
            parent.(u) <- id;
            push u
          end
        end
      end
    end
  done

(* Best free right vertex by gain: maximum distance, ties to the
   smallest index — the same scan as Tiered.best_target. *)
let best_target t =
  let nl = t.nl and k = t.k in
  let best = ref (-1) in
  for v = 0 to t.nr - 1 do
    if t.right_to_.(v) < 0 && t.have.(nl + v) = t.clock then begin
      if !best < 0 then best := v
      else if dist_gt t ((nl + v) * k) ((nl + !best) * k) then best := v
    end
  done;
  !best

let gain_positive t v =
  let off = (t.nl + v) * t.k in
  let rec go j =
    if j >= t.k then false
    else
      let x = t.dist.(off + j) in
      if x <> 0 then x > 0 else go (j + 1)
  in
  go 0

(* Collect the augmenting path ending at free right [v] (edges stored
   root-to-start in t.path), then flip it with the same drop-then-use
   order as Matching.augment_along. *)
let augment t v =
  t.path <- ensure t.path ((2 * t.nl) + 1) 0;
  let path = t.path in
  let len = ref 0 in
  let v = ref v in
  let continue_ = ref true in
  while !continue_ do
    let e = t.parent.(t.nl + !v) in
    path.(!len) <- e;
    incr len;
    let u = t.esrc.(e) in
    if t.left_to_.(u) >= 0 then begin
      let e' = t.left_edge_.(u) in
      path.(!len) <- e';
      incr len;
      v := t.edst.(e')
    end
    else continue_ := false
  done;
  let l = !len in
  (* path.(i) sits at start-index l-1-i; drop the matched (odd) edges
     first, then use the unmatched (even) ones *)
  for i = 0 to l - 1 do
    if (l - 1 - i) land 1 = 1 then begin
      let u = t.esrc.(path.(i)) in
      let w = t.left_to_.(u) in
      if w >= 0 then begin
        t.left_to_.(u) <- -1;
        t.right_to_.(w) <- -1;
        t.left_edge_.(u) <- -1
      end
    end
  done;
  for i = 0 to l - 1 do
    if (l - 1 - i) land 1 = 0 then begin
      let e = path.(i) in
      let u = t.esrc.(e) and w = t.edst.(e) in
      t.left_to_.(u) <- w;
      t.right_to_.(w) <- u;
      t.left_edge_.(u) <- e
    end
  done;
  t.augments <- t.augments + 1;
  if l = 1 then t.warm_hits <- t.warm_hits + 1

let solve t =
  let nv = t.nl + t.nr in
  t.loff <- ensure t.loff (t.nl + 1) 0;
  t.loff.(t.nl) <- t.ne;
  t.dist <- ensure t.dist (nv * t.k) 0;
  t.have <- ensure t.have nv 0;
  t.inq <- ensure t.inq nv 0;
  t.parent <- ensure t.parent nv (-1);
  t.queue <- ensure t.queue (nv + 1) 0;
  let continue_ = ref true in
  while !continue_ do
    spfa t;
    t.sweeps <- t.sweeps + 1;
    let v = best_target t in
    if v >= 0 && gain_positive t v then augment t v
    else continue_ := false
  done
