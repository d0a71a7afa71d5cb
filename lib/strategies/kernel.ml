module Request = Sched.Request
module Strategy = Sched.Strategy
module Slots = Sched.Slots
module Warm = Graph.Warm

(* The warm-start incremental round kernel behind Global's strategies.

   Outcome-identical to the from-scratch solver in global.ml (the
   [Rebuild] oracle) but structured around what actually changes when
   the round advances:

   - Fix family (A_fix, A_fix_balance): assignments are frozen, so the
     matching is carried across rounds in a [d]-deep Sched.Slots table
     and each round solves only the round's {e arrivals} against the
     still-free slots.  This is exact, not heuristic: every fix-family
     edge weight is lexicographically positive, and a Tiered solve ends
     on an optimum (its last phase finds no positive augmenting path),
     so afterwards no edge can join an unmatched request to a free slot
     (it would be a one-edge positive augmenting path).  Occupied slots
     never free up before they serve, hence a request left unmatched at
     round [t] could only regain an edge when a fresh column enters its
     window, i.e. if [last_round >= round + d - 1] held a round after
     it arrived; [deadline <= d] rules that out.  Unmatched requests
     are therefore dormant forever; in the rebuild solver they are
     isolated left vertices, which the phase rule never touches (each
     sweep seeds them with label 0 and relaxes nothing from them, and a
     backward search enters a left vertex only over one of its edges).
     So dropping them, while keeping the arrivals in ascending-id order
     and the slots in the same [(slot_round - round) * n + resource]
     indexing, keeps the sweep's FIFO order and every right vertex's
     ascending edge order, and provably preserves the solver's output.

   - Full family (A_eager, A_balance, A_remax) and A_current: the
     semantics {e are} the from-empty augmentation sequence each round,
     so the subproblem cannot shrink; instead the Hashtbl scans, the
     polymorphic sort and the per-edge allocations go away.  Requests
     live in an id-ordered struct-of-arrays pool, expiry and
     served-compaction fold into the single build pass (O(expiring)
     amortised — each entry is appended once and dropped once), and the
     solve runs on the allocation-free {!Graph.Warm} arena.

   Engine contract assumed ({!Sched.Strategy.t}, enforced by
   [Engine.Live], the only caller of [step]): rounds advance by one,
   and each round's arrivals have [arrival = round],
   [1 <= deadline <= d] and ascending ids. *)

type kind = Fix | Current | Fix_balance | Eager | Balance | Remax

let kind_name = function
  | Fix -> "A_fix"
  | Current -> "A_current"
  | Fix_balance -> "A_fix_balance"
  | Eager -> "A_eager"
  | Balance -> "A_balance"
  | Remax -> "A_remax"

type t = {
  kind : kind;
  n : int;
  d : int;
  bias : Strategy.bias;
  metrics : Obs.Metrics.t option;
  warm : Warm.t;
  slots : int Slots.t; (* fix family: frozen assignments, by id *)
  (* full family / current: live requests in ascending id order;
     state -1 = unassigned, -2 = dead (served), t >= 0 = slot round —
     compacted in the build pass *)
  mutable pool : Request.t array;
  mutable pool_state : int array;
  mutable pool_len : int;
}

let dummy_req = Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:1

let serve_compare (a : Strategy.serve) (b : Strategy.serve) =
  if a.request <> b.request then Int.compare a.request b.request
  else Int.compare a.resource b.resource

(* ---------------- fix family ---------------- *)

let step_fix st ~round ~(arrivals : Request.t array) =
  let n = st.n and d = st.d in
  let k = match st.kind with Fix -> 3 | _ -> d + 1 in
  Warm.begin_round st.warm ~n_right:(n * d) ~k;
  Array.iter
    (fun r ->
       ignore (Warm.add_left st.warm);
       Array.iter
         (fun resource ->
            for slot_round = round to Request.last_round r do
              if not (Slots.mem st.slots ~res:resource ~round:slot_round)
              then begin
                let e =
                  Warm.add_edge st.warm
                    ~right:(((slot_round - round) * n) + resource)
                in
                match st.kind with
                | Fix ->
                  Warm.set_weight st.warm e 0 1;
                  Warm.set_weight st.warm e 1 1;
                  Warm.set_weight st.warm e 2
                    (st.bias ~request:r ~resource ~round:slot_round)
                | _ ->
                  Warm.set_weight st.warm e (slot_round - round) 1;
                  Warm.set_weight st.warm e d
                    (st.bias ~request:r ~resource ~round:slot_round)
              end
            done)
         r.Request.alternatives)
    arrivals;
  Warm.solve st.warm;
  (* freeze the new matches into the slot table *)
  Array.iteri
    (fun li (r : Request.t) ->
       let v = Warm.left_to st.warm li in
       if v >= 0 then
         Slots.set st.slots ~res:(v mod n) ~round:(round + (v / n)) r.id)
    arrivals;
  (* serve the current column *)
  let serves = ref [] in
  for resource = n - 1 downto 0 do
    match Slots.take st.slots ~res:resource ~round with
    | Some request -> serves := { Strategy.request; resource } :: !serves
    | None -> ()
  done;
  List.sort serve_compare !serves

(* ---------------- pooled families ---------------- *)

let pool_append st (arrivals : Request.t array) =
  let a = Array.length arrivals in
  let len = st.pool_len + a in
  if Array.length st.pool < len then begin
    let cap = max len ((2 * Array.length st.pool) + 8) in
    let pool = Array.make cap dummy_req and state = Array.make cap (-1) in
    Array.blit st.pool 0 pool 0 st.pool_len;
    Array.blit st.pool_state 0 state 0 st.pool_len;
    st.pool <- pool;
    st.pool_state <- state
  end;
  Array.blit arrivals 0 st.pool st.pool_len a;
  Array.fill st.pool_state st.pool_len a (-1);
  st.pool_len <- len

let step_current st ~round ~arrivals =
  pool_append st arrivals;
  Warm.begin_round st.warm ~n_right:st.n ~k:2;
  let w = ref 0 in
  for i = 0 to st.pool_len - 1 do
    let r = st.pool.(i) in
    if st.pool_state.(i) <> -2 && Request.last_round r >= round then begin
      st.pool.(!w) <- r;
      st.pool_state.(!w) <- -1;
      incr w;
      ignore (Warm.add_left st.warm);
      Array.iter
        (fun resource ->
           let e = Warm.add_edge st.warm ~right:resource in
           Warm.set_weight st.warm e 0 1;
           Warm.set_weight st.warm e 1
             (st.bias ~request:r ~resource ~round))
        r.Request.alternatives
    end
  done;
  st.pool_len <- !w;
  Warm.solve st.warm;
  let serves = ref [] in
  for li = st.pool_len - 1 downto 0 do
    let v = Warm.left_to st.warm li in
    if v >= 0 then begin
      st.pool_state.(li) <- -2;
      serves :=
        { Strategy.request = st.pool.(li).Request.id; resource = v }
        :: !serves
    end
  done;
  !serves

let step_full st ~round ~arrivals =
  pool_append st arrivals;
  let n = st.n and d = st.d in
  let k = match st.kind with Eager -> 4 | Remax -> 3 | _ -> d + 3 in
  Warm.begin_round st.warm ~n_right:(n * d) ~k;
  let w = ref 0 in
  for i = 0 to st.pool_len - 1 do
    let r = st.pool.(i) in
    if st.pool_state.(i) <> -2 && Request.last_round r >= round then begin
      let kept = st.pool_state.(i) >= 0 in
      st.pool.(!w) <- r;
      st.pool_state.(!w) <- -1;
      incr w;
      ignore (Warm.add_left st.warm);
      let lo = max round r.Request.arrival
      and hi = min (Request.last_round r) (round + d - 1) in
      Array.iter
        (fun resource ->
           for slot_round = lo to hi do
             let e =
               Warm.add_edge st.warm
                 ~right:(((slot_round - round) * n) + resource)
             in
             let b = st.bias ~request:r ~resource ~round:slot_round in
             match st.kind with
             | Eager ->
               if kept then Warm.set_weight st.warm e 0 1;
               Warm.set_weight st.warm e 1 1;
               if slot_round = round then Warm.set_weight st.warm e 2 1;
               Warm.set_weight st.warm e 3 b
             | Remax ->
               Warm.set_weight st.warm e 0 1;
               if slot_round = round then Warm.set_weight st.warm e 1 1;
               Warm.set_weight st.warm e 2 b
             | _ ->
               if kept then Warm.set_weight st.warm e 0 1;
               Warm.set_weight st.warm e 1 1;
               Warm.set_weight st.warm e (2 + (slot_round - round)) 1;
               Warm.set_weight st.warm e (d + 2) b
           done)
        r.Request.alternatives
    end
  done;
  st.pool_len <- !w;
  Warm.solve st.warm;
  let serves = ref [] in
  for li = st.pool_len - 1 downto 0 do
    let v = Warm.left_to st.warm li in
    if v >= 0 then begin
      let resource = v mod n and slot_round = round + (v / n) in
      if slot_round = round then begin
        st.pool_state.(li) <- -2;
        serves :=
          { Strategy.request = st.pool.(li).Request.id; resource }
          :: !serves
      end
      else st.pool_state.(li) <- slot_round
    end
    else st.pool_state.(li) <- -1
  done;
  !serves

let step_core st ~round ~arrivals =
  match st.kind with
  | Fix | Fix_balance -> step_fix st ~round ~arrivals
  | Current -> step_current st ~round ~arrivals
  | Eager | Balance | Remax -> step_full st ~round ~arrivals

let make ~kind ~n ~d ~bias ~metrics () : Strategy.t =
  let st =
    {
      kind;
      n;
      d;
      bias;
      metrics;
      warm = Warm.create ();
      slots = Slots.create ~n ~d ~dummy:(-1);
      pool = [||];
      pool_state = [||];
      pool_len = 0;
    }
  in
  let step =
    match st.metrics with
    | None -> fun ~round ~arrivals -> step_core st ~round ~arrivals
    | Some m ->
      fun ~round ~arrivals ->
        let s0 = Warm.stats st.warm in
        let t0 = Obs.Span.start () in
        let serves = step_core st ~round ~arrivals in
        Obs.Metrics.observe m "strategy.kernel_us"
          (Obs.Span.elapsed t0 *. 1e6);
        let s1 = Warm.stats st.warm in
        Obs.Metrics.incr ~by:(s1.Warm.sweeps - s0.Warm.sweeps) m
          "strategy.augment_searches";
        Obs.Metrics.incr ~by:(s1.Warm.augments - s0.Warm.augments) m
          "strategy.augments";
        Obs.Metrics.incr ~by:(s1.Warm.warm_hits - s0.Warm.warm_hits) m
          "strategy.warm_hits";
        Obs.Metrics.observe m "strategy.label_words"
          (float_of_int s1.Warm.words);
        serves
  in
  { Strategy.name = kind_name kind; step }
