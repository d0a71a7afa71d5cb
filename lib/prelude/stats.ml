(* Every field is a float, so the record is stored flat and an update
   boxes nothing: [add] allocates no minor words.  [n] holds an integer
   count, exact below 2^53. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable mn : float;
  mutable mx : float;
}

let create () =
  { n = 0.0; mean = 0.0; m2 = 0.0; mn = infinity; mx = neg_infinity }

let[@inline] add t x =
  t.n <- t.n +. 1.0;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let copy t = { t with n = t.n }

let reset t =
  t.n <- 0.0;
  t.mean <- 0.0;
  t.m2 <- 0.0;
  t.mn <- infinity;
  t.mx <- neg_infinity

let of_moments ~count ~mean ~m2 ~mn ~mx =
  if count < 0 then invalid_arg "Stats.of_moments: negative count";
  if count = 0 then create ()
  else { n = float_of_int count; mean; m2; mn; mx }

let count t = int_of_float t.n
let m2 t = t.m2
let mean t = if t.n = 0.0 then nan else t.mean
let variance t = if t.n < 2.0 then nan else t.m2 /. (t.n -. 1.0)
let stddev t = sqrt (variance t)
let min t = if t.n = 0.0 then nan else t.mn
let max t = if t.n = 0.0 then nan else t.mx

let ci95_halfwidth t =
  if t.n < 2.0 then nan else 1.96 *. stddev t /. sqrt t.n

(* Chan et al. parallel-merge formula. *)
let absorb a b =
  if b.n = 0.0 then ()
  else if a.n = 0.0 then begin
    a.n <- b.n;
    a.mean <- b.mean;
    a.m2 <- b.m2;
    a.mn <- b.mn;
    a.mx <- b.mx
  end
  else begin
    let n = a.n +. b.n in
    let delta = b.mean -. a.mean in
    a.mean <- a.mean +. (delta *. b.n /. n);
    a.m2 <- a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. n);
    a.n <- n;
    a.mn <- Stdlib.min a.mn b.mn;
    a.mx <- Stdlib.max a.mx b.mx
  end

let merge a b =
  let c = copy a in
  absorb c b;
  c

let quantile data q =
  let len = Array.length data in
  if len = 0 then invalid_arg "Stats.quantile: empty data";
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Stats.quantile: q out of [0,1]";
  let sorted = Array.copy data in
  Array.sort Float.compare sorted;
  let pos = q *. float_of_int (len - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
