(* SLO scoring.  Everything here is exact until the final division:
   turnaround is an integer sum, the delay-factor maximum is an exact
   fraction compared by cross-multiplication, machines-needed is pure
   integer arithmetic.  That is what lets the differential suite pin
   streaming == batch to the last bit without tolerance fudge. *)

type scores = {
  submitted : int;
  served : int;
  expired : int;
  rounds : int;
  violation_rate : float;
  throughput : float;
  antt : float;
  max_delay_factor : float;
  machines_needed : int;
}

(* -- exact fraction maximum ------------------------------------------ *)

(* (0, 0) = empty; dens are always > 0 afterwards *)
type frac_max = { mutable num : int; mutable den : int }

let frac_empty () = { num = 0; den = 0 }

let frac_update f ~num ~den =
  if f.den = 0 || num * f.den > f.num * den then begin
    f.num <- num;
    f.den <- den
  end

let frac_value f = if f.den = 0 then Float.nan else float_of_int f.num /. float_of_int f.den

(* -- machines-needed interval bound ----------------------------------
   Kao et al.'s lower bound: max over [t1, t2] of
   ceil (N(t1,t2) / (t2 - t1 + 1)) with N counting requests whose whole
   window [arrival .. last_round] fits inside the interval.  Since
   max ceil = ceil max, it is the ceiling of the densest interval, and
   when round t2 completes only intervals ending at t2 gained members.

   Let o be the oldest arrival round with a window still open after t2
   (t2 + 1 if none), F(x) the number of requests arriving before x for
   x <= o, and C the number of windows closed so far.  For t1 < o every
   request arriving before t1 has closed, so N(t1,t2) = C - F(t1): the
   density is the slope from the point (t1, F(t1)) to Q = (t2 + 1, C).
   The steepest such slope is the tangent from Q to the lower convex
   hull of the points (x, F(x)), found by binary search with integer
   cross products.  The few t1 in [o, t2] are scanned directly from
   per-arrival closed counts.  A hull vertex whose right edge is no
   steeper than the best bound so far can never beat it again (any
   slope through it to a later Q is at most max (that edge, the next
   vertex's slope)), so it is dropped from the left; what remains is
   bounded by the open window in practice, not by the horizon.
   [machines_of_instance] below is the direct O(h^2) oracle. *)

let ceil_div a b = (a + b - 1) / b

(* pow2 >= n, at least 16 *)
let pow2_at_least n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 16

type machines = {
  (* last_round -> arrival of each window closing then, rounds
     [rounds .. rounds + length - 1] at [last_round land (length - 1)] *)
  mutable closing : Prelude.Ivec.t array;
  (* arrival round -> windows still open / closed so far, arrival rounds
     [oldest .. current] at [arrival land (length - 1)] *)
  mutable open_at : int array;
  mutable closed_at : int array;
  mutable oldest : int; (* o: oldest arrival round not yet folded *)
  mutable f_oldest : int; (* F(o) *)
  mutable closed : int; (* C *)
  (* lower hull of (x, F x) for x < o, vertices [h_lo .. h_hi - 1] *)
  mutable hx : int array;
  mutable hy : int array;
  mutable h_lo : int;
  mutable h_hi : int;
  mutable best : int;
}

let machines_create () =
  {
    closing = Array.init 16 (fun _ -> Prelude.Ivec.create ());
    open_at = Array.make 16 0;
    closed_at = Array.make 16 0;
    oldest = 0;
    f_oldest = 0;
    closed = 0;
    hx = Array.make 16 0;
    hy = Array.make 16 0;
    h_lo = 0;
    h_hi = 0;
    best = 0;
  }

(* Make room for last round [last] while rounds from [now] are live.
   Not [Sched.Id_ring.grow]: a cell here is a mutable [Ivec] bucket, and
   that routine fills every new cell with one shared vacant value, so
   the new buckets would alias a single vector. *)
let reserve_closing m ~now ~last =
  let len = Array.length m.closing in
  if last - now >= len then begin
    let len' = pow2_at_least (last - now + 1) in
    let c =
      Array.init len' (fun i ->
          let r = now + ((i - now) land (len' - 1)) in
          if r < now + len then m.closing.(r land (len - 1))
          else Prelude.Ivec.create ())
    in
    m.closing <- c
  end

(* Make room for arrival round [now] while arrival rounds from
   [m.oldest] are live; [now]'s own cell is still empty (this runs
   before its first admission and again when round [now] completes). *)
let reserve_arrivals m ~now =
  while now - m.oldest >= Array.length m.open_at do
    m.open_at <- Sched.Id_ring.grow m.open_at ~low:m.oldest ~next:now 0;
    m.closed_at <- Sched.Id_ring.grow m.closed_at ~low:m.oldest ~next:now 0
  done

let machines_add m ~arrival ~last_round =
  reserve_arrivals m ~now:arrival;
  reserve_closing m ~now:arrival ~last:last_round;
  let i = arrival land (Array.length m.open_at - 1) in
  m.open_at.(i) <- m.open_at.(i) + 1;
  Prelude.Ivec.push m.closing.(last_round land (Array.length m.closing - 1))
    arrival

let cross ax ay bx by cx cy = ((bx - ax) * (cy - ay)) - ((by - ay) * (cx - ax))

let hull_push m x y =
  while
    m.h_hi - m.h_lo >= 2
    && cross m.hx.(m.h_hi - 2) m.hy.(m.h_hi - 2) m.hx.(m.h_hi - 1)
         m.hy.(m.h_hi - 1) x y
       <= 0
  do
    m.h_hi <- m.h_hi - 1
  done;
  if m.h_hi = Array.length m.hx then begin
    (* shift the live vertices down, doubling once they fill half *)
    let live = m.h_hi - m.h_lo in
    let room a =
      if 2 * live <= Array.length a then a else Array.make (2 * Array.length a) 0
    in
    let hx = room m.hx and hy = room m.hy in
    Array.blit m.hx m.h_lo hx 0 live;
    Array.blit m.hy m.h_lo hy 0 live;
    m.hx <- hx;
    m.hy <- hy;
    m.h_lo <- 0;
    m.h_hi <- live
  end;
  m.hx.(m.h_hi) <- x;
  m.hy.(m.h_hi) <- y;
  m.h_hi <- m.h_hi + 1

(* The hull vertex with the steepest slope to Q = (qx, qy), right of
   every vertex: the first vertex k with Q not strictly above the line
   through k and k + 1 (that line's height at qx grows with k). *)
let hull_tangent m qx qy =
  let lo = ref m.h_lo and hi = ref (m.h_hi - 1) in
  while !lo < !hi do
    let k = (!lo + !hi) / 2 in
    if cross m.hx.(k) m.hy.(k) m.hx.(k + 1) m.hy.(k + 1) qx qy > 0 then
      lo := k + 1
    else hi := k
  done;
  !lo

let machines_round_done m ~round:t2 =
  reserve_arrivals m ~now:t2;
  let bucket = m.closing.(t2 land (Array.length m.closing - 1)) in
  let amask = Array.length m.open_at - 1 in
  for k = 0 to Prelude.Ivec.length bucket - 1 do
    let i = Prelude.Ivec.get bucket k land amask in
    m.open_at.(i) <- m.open_at.(i) - 1;
    m.closed_at.(i) <- m.closed_at.(i) + 1
  done;
  m.closed <- m.closed + Prelude.Ivec.length bucket;
  Prelude.Ivec.clear bucket;
  (* fold arrival rounds whose windows have all closed into the hull *)
  while m.oldest <= t2 && m.open_at.(m.oldest land amask) = 0 do
    hull_push m m.oldest m.f_oldest;
    let i = m.oldest land amask in
    m.f_oldest <- m.f_oldest + m.closed_at.(i);
    m.closed_at.(i) <- 0;
    m.oldest <- m.oldest + 1
  done;
  (* intervals [t1, t2] with t1 < o: the tangent from Q *)
  let qx = t2 + 1 and qy = m.closed in
  if m.h_hi > m.h_lo then begin
    let k = hull_tangent m qx qy in
    let need = ceil_div (qy - m.hy.(k)) (qx - m.hx.(k)) in
    if need > m.best then m.best <- need
  end;
  (* t1 in [o, t2]: the rounds whose windows are partly open *)
  let acc = ref (qy - m.f_oldest) in
  for t1 = m.oldest to t2 do
    let need = ceil_div !acc (t2 - t1 + 1) in
    if need > m.best then m.best <- need;
    acc := !acc - m.closed_at.(t1 land amask)
  done;
  while
    m.h_hi - m.h_lo >= 2
    && m.hy.(m.h_lo + 1) - m.hy.(m.h_lo)
       <= m.best * (m.hx.(m.h_lo + 1) - m.hx.(m.h_lo))
  do
    m.h_lo <- m.h_lo + 1
  done

(* -- streaming accumulator ------------------------------------------- *)

(* Pending requests live in a Sched.Id_ring: id [i] at
   [i land (length - 1)], ids from [low] to [last_id]; a cell holds
   [no_id] once its request is terminal.  Ids ascend, so the ring spans
   the open window's ids and doubles only when that span outgrows it. *)
let no_id = min_int

type t = {
  mutable last_id : int;
  mutable low : int; (* no pending id below it *)
  mutable ids : int array;
  mutable arrival : int array;
  mutable deadline : int array;
  mutable submitted : int;
  mutable served : int;
  mutable expired : int;
  mutable rounds : int;
  mutable turnaround_sum : int;     (* served requests only *)
  delay : frac_max;
  machines : machines;
}

let create () =
  {
    last_id = no_id;
    low = 0;
    ids = Array.make 64 no_id;
    arrival = Array.make 64 0;
    deadline = Array.make 64 0;
    submitted = 0;
    served = 0;
    expired = 0;
    rounds = 0;
    turnaround_sum = 0;
    delay = frac_empty ();
    machines = machines_create ();
  }

(* Room for [id]: skip terminal ids at the bottom, then double the ring
   until ids [low .. id] fit. *)
let reserve_id t id =
  let next = t.last_id + 1 in
  t.low <- Sched.Id_ring.trim t.ids ~low:t.low ~next no_id;
  if t.low > t.last_id then t.low <- id;
  while id - t.low >= Array.length t.ids do
    let low = t.low in
    t.ids <- Sched.Id_ring.grow t.ids ~low ~next no_id;
    t.arrival <- Sched.Id_ring.grow t.arrival ~low ~next 0;
    t.deadline <- Sched.Id_ring.grow t.deadline ~low ~next 0
  done

let on_submit t ~id ~round ~deadline =
  if deadline < 1 then invalid_arg "Slo.on_submit: deadline < 1";
  if id <= t.last_id then invalid_arg "Slo.on_submit: id not ascending";
  if round <> t.rounds then
    invalid_arg "Slo.on_submit: round is not the round in progress";
  reserve_id t id;
  let c = id land (Array.length t.ids - 1) in
  t.ids.(c) <- id;
  t.arrival.(c) <- round;
  t.deadline.(c) <- deadline;
  t.last_id <- id;
  t.submitted <- t.submitted + 1;
  machines_add t.machines ~arrival:round ~last_round:(round + deadline - 1)

(* The cell of pending [id], now terminal. *)
let take_pending t ~id ~what =
  let c = id land (Array.length t.ids - 1) in
  if id = no_id || t.ids.(c) <> id then
    invalid_arg ("Slo." ^ what ^ ": unknown or terminal id");
  t.ids.(c) <- no_id;
  c

let on_serve t ~id ~round =
  let c = take_pending t ~id ~what:"on_serve" in
  t.served <- t.served + 1;
  let turnaround = round - t.arrival.(c) + 1 in
  t.turnaround_sum <- t.turnaround_sum + turnaround;
  frac_update t.delay ~num:turnaround ~den:t.deadline.(c)

let on_expire t ~id ~round:_ =
  let c = take_pending t ~id ~what:"on_expire" in
  t.expired <- t.expired + 1;
  (* hard-drop adaptation of the delay factor: one full window elapsed
     and the request still died, so charge (D + 1) / D > 1 *)
  frac_update t.delay ~num:(t.deadline.(c) + 1) ~den:t.deadline.(c)

let on_round t =
  machines_round_done t.machines ~round:t.rounds;
  t.rounds <- t.rounds + 1

let scores_of ~submitted ~served ~expired ~rounds ~turnaround_sum ~delay
    ~machines_needed =
  {
    submitted;
    served;
    expired;
    rounds;
    violation_rate =
      (if submitted = 0 then 0.0
       else float_of_int expired /. float_of_int submitted);
    throughput =
      (if rounds = 0 then 0.0 else float_of_int served /. float_of_int rounds);
    antt =
      (if served = 0 then Float.nan
       else float_of_int turnaround_sum /. float_of_int served);
    max_delay_factor = frac_value delay;
    machines_needed;
  }

let scores t =
  scores_of ~submitted:t.submitted ~served:t.served ~expired:t.expired
    ~rounds:t.rounds ~turnaround_sum:t.turnaround_sum ~delay:t.delay
    ~machines_needed:t.machines.best

(* -- batch oracle ------------------------------------------------------
   Recomputed with direct loops over the outcome log — deliberately no
   shared code with the accumulator above, so the differential test is
   a real cross-check. *)

let machines_of_instance (inst : Sched.Instance.t) =
  let h = inst.horizon in
  if h = 0 then 0
  else begin
    let closing = Array.make h [] in
    Array.iter
      (fun (r : Sched.Request.t) ->
        let last = Sched.Request.last_round r in
        closing.(last) <- r.arrival :: closing.(last))
      inst.requests;
    let by_arrival = Array.make h 0 in
    let best = ref 0 in
    for t2 = 0 to h - 1 do
      List.iter
        (fun a -> by_arrival.(a) <- by_arrival.(a) + 1)
        closing.(t2);
      let acc = ref 0 in
      for t1 = t2 downto 0 do
        acc := !acc + by_arrival.(t1);
        let len = t2 - t1 + 1 in
        let need = (!acc + len - 1) / len in
        if need > !best then best := need
      done
    done;
    !best
  end

let of_outcome (o : Sched.Outcome.t) =
  let inst = o.instance in
  let submitted = Sched.Instance.n_requests inst in
  let served = ref 0 and expired = ref 0 in
  let turnaround_sum = ref 0 in
  let delay = frac_empty () in
  Array.iteri
    (fun id slot ->
      let r = inst.requests.(id) in
      match slot with
      | Some (_resource, round) ->
          incr served;
          let turnaround = round - r.arrival + 1 in
          turnaround_sum := !turnaround_sum + turnaround;
          frac_update delay ~num:turnaround ~den:r.deadline
      | None ->
          incr expired;
          frac_update delay ~num:(r.deadline + 1) ~den:r.deadline)
    o.served_at;
  scores_of ~submitted ~served:!served ~expired:!expired ~rounds:inst.horizon
    ~turnaround_sum:!turnaround_sum ~delay
    ~machines_needed:(machines_of_instance inst)

(* -- the guarded ratio ------------------------------------------------ *)

let ratio_of ~opt ~served =
  if served > 0 then float_of_int opt /. float_of_int served
  else if opt = 0 then 1.0
  else Float.infinity

(* -- export through lib/obs ------------------------------------------- *)

let record ?(prefix = "slo") m (s : scores) =
  let counter name v = Obs.Metrics.incr ~by:v m (prefix ^ "." ^ name) in
  let gauge name v =
    if not (Float.is_nan v) then Obs.Metrics.set m (prefix ^ "." ^ name) v
  in
  counter "submitted" s.submitted;
  counter "served" s.served;
  counter "expired" s.expired;
  counter "rounds" s.rounds;
  gauge "violation_rate" s.violation_rate;
  gauge "throughput" s.throughput;
  gauge "antt" s.antt;
  gauge "max_delay_factor" s.max_delay_factor;
  gauge "machines_needed" (float_of_int s.machines_needed)

(* -- score modes (CLI) ------------------------------------------------ *)

type mode = Ratio | Violation | Throughput | Antt | Delay | Machines

type selector = All | One of mode

let selectors =
  [
    ("ratio", One Ratio);
    ("violation", One Violation);
    ("throughput", One Throughput);
    ("antt", One Antt);
    ("delay", One Delay);
    ("machines", One Machines);
    ("slo", All);
  ]

let selector_names = List.map fst selectors

let selector_of_name name =
  match List.assoc_opt name selectors with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown score mode %S (expected one of: %s)" name
           (String.concat ", " selector_names))

let selector_to_name s =
  fst (List.find (fun (_, s') -> s' = s) selectors)

let mode_label = function
  | Ratio -> "ratio"
  | Violation -> "viol%"
  | Throughput -> "thr/round"
  | Antt -> "antt"
  | Delay -> "maxDF"
  | Machines -> "machines"

let float_cell fmt v = if Float.is_nan v then "-" else Printf.sprintf fmt v

let mode_cell mode ~ratio (s : scores) =
  match mode with
  | Ratio -> float_cell "%.3f" ratio
  | Violation -> float_cell "%.1f%%" (100.0 *. s.violation_rate)
  | Throughput -> float_cell "%.2f" s.throughput
  | Antt -> float_cell "%.3f" s.antt
  | Delay -> float_cell "%.3f" s.max_delay_factor
  | Machines -> string_of_int s.machines_needed

let pp_scores ppf (s : scores) =
  Format.fprintf ppf
    "@[<v>submitted        %d@,served           %d@,expired          %d@,\
     rounds           %d@,violation rate   %s@,throughput       %s@,\
     antt             %s@,max delay factor %s@,machines needed  %d@]"
    s.submitted s.served s.expired s.rounds
    (float_cell "%.4f" s.violation_rate)
    (float_cell "%.4f" s.throughput)
    (float_cell "%.4f" s.antt)
    (float_cell "%.4f" s.max_delay_factor)
    s.machines_needed
