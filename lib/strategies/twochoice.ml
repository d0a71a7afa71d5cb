module Request = Sched.Request
module Strategy = Sched.Strategy
module Slots = Sched.Slots

(* Assignments live in a {!Sched.Slots} table of request ids, so the
   greedy family's bookkeeping is O(window) per request and O(n) per
   round, with no per-slot allocation.  Each arrival's window is
   [round .. last_round], within [d] rounds by the step contract.
   [choose] assigns one arrival (or leaves it unassigned) by itself,
   in loops over its alternatives: no closure, tuple or option per
   request beyond [Slots.first_free]'s. *)
let earliest_free slots ~round res (r : Request.t) =
  Slots.first_free slots ~res ~from:round ~last:(Request.last_round r)

let make ~name ~choose : Strategy.factory =
 fun ~n ~d ->
  let slots = Slots.create ~n ~d ~dummy:(-1) in
  {
    Strategy.name;
    step =
      (fun ~round ~arrivals ->
         for i = 0 to Array.length arrivals - 1 do
           choose slots ~round arrivals.(i)
         done;
         let serves = ref [] in
         for res = n - 1 downto 0 do
           match Slots.take slots ~res ~round with
           | Some request ->
             serves := { Strategy.request; resource = res } :: !serves
           | None -> ()
         done;
         !serves);
  }

let least_loaded ?(bias = Strategy.no_bias) () =
  let choose slots ~round (r : Request.t) =
    (* best (free_slots, bias, lower res), compared field by field *)
    let best_free = ref (-1)
    and best_bias = ref 0
    and best_res = ref (-1)
    and best_t = ref (-1) in
    for i = 0 to Array.length r.Request.alternatives - 1 do
      let res = r.Request.alternatives.(i) in
      match earliest_free slots ~round res r with
      | None -> ()
      | Some t ->
        let free =
          Slots.count_free slots ~res ~from:round
            ~last:(Request.last_round r)
        and b = bias ~request:r ~resource:res ~round in
        let better =
          !best_res < 0 || free > !best_free
          || (free = !best_free
              && (b > !best_bias || (b = !best_bias && res < !best_res)))
        in
        if better then begin
          best_free := free;
          best_bias := b;
          best_res := res;
          best_t := t
        end
    done;
    if !best_res >= 0 then
      Slots.set slots ~res:!best_res ~round:!best_t r.Request.id
  in
  make ~name:"greedy_2choice" ~choose

let random_choice ~rng () =
  let choose slots ~round (r : Request.t) =
    let res = Prelude.Rng.pick rng r.Request.alternatives in
    match earliest_free slots ~round res r with
    | Some t -> Slots.set slots ~res ~round:t r.Request.id
    | None -> ()
  in
  make ~name:"greedy_random" ~choose

let first_fit () =
  let rec choose slots ~round (r : Request.t) i =
    if i < Array.length r.Request.alternatives then begin
      let res = r.Request.alternatives.(i) in
      match earliest_free slots ~round res r with
      | Some t -> Slots.set slots ~res ~round:t r.Request.id
      | None -> choose slots ~round r (i + 1)
    end
  in
  let choose slots ~round r = choose slots ~round r 0 in
  make ~name:"greedy_firstfit" ~choose
