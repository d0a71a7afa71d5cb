exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

type adaptive = round:int -> is_served:(int -> bool) -> Request.t list

module Ivec = Prelude.Ivec

(* ------------------------------------------------------------------ *)
(* Live: the one round engine.

   Requests are submitted between rounds and the caller decides when
   each round happens (a shard's tick, or the batch drivers below).
   Every admitted request reaches exactly one terminal state — served
   (the step that first serves it reports the id) or expired (reported
   by the step that closes its window).

   A request can only be served in the [d] rounds after it arrives, so
   the engine holds open windows only, in an {!Id_ring}: the request of
   open id [i] sits at [window.(i land (length - 1))], with its served
   flag at the same index of [first_served].  Ids
   [low .. next_id - 1] are the admitted ids not yet known closed, each
   open or reset to [closed]; every id closes within [d] rounds, so
   the span covers at most the last [d] rounds of admissions and the
   length (a power of two) doubles only when the span reaches it.
   Bucket [last_round mod d] of [expiry] lists the ids whose window
   closes at that round, ascending because ids are handed out in
   order.  This round's arrivals are ids [round_first .. next_id - 1],
   contiguous in the ring, so the step copies them out in one slice.
   A steady-state round allocates the arrivals array and whatever the
   strategy and the callbacks allocate, and nothing else per request. *)

module Live = struct
  module M = Obs.Metrics

  (* the [engine.*] handles, bound once per engine *)
  type meters = {
    step_us : M.histogram;
    rounds : M.counter;
    arrivals : M.counter;
    served : M.counter;
    wasted : M.counter;
    served_per_round : M.histogram;
  }

  let meters m =
    {
      step_us = M.register_histogram m "engine.step_us";
      rounds = M.register_counter m "engine.rounds";
      arrivals = M.register_counter m "engine.arrivals";
      served = M.register_counter m "engine.served";
      wasted = M.register_counter m "engine.wasted";
      served_per_round = M.register_histogram m "engine.served_per_round";
    }

  type outcome = {
    round : int;                (** the round just executed *)
    served : (int * int) list;
        (** (request id, resource) of first services, in service order *)
    expired : int list;         (** ids whose window closed unserved *)
  }

  (* fills closed ring cells; its id (-1) matches no admitted id *)
  let closed =
    Request.of_array ~id:(-1) ~arrival:0 ~alternatives:[| 0 |] ~deadline:1

  type t = {
    n : int;
    d : int;
    strategy : Strategy.t;
    meters : meters option;
    mutable window : Request.t array;   (* id ring: open request or [closed] *)
    mutable first_served : bool array;  (* parallel to [window] *)
    mutable low : int;                  (* ids below are closed *)
    expiry : Ivec.t array;              (* last_round mod d -> ids *)
    busy : int array;                   (* resource -> last round it served *)
    mutable round_first : int;          (* first id arriving this round *)
    mutable next_id : int;
    mutable round : int;
    mutable live : int;                 (* admitted, no terminal yet *)
    mutable wasted : int;
  }

  let create ?metrics ~n ~d factory =
    if n < 1 then invalid_arg "Engine.Live.create: n must be >= 1";
    if d < 1 then invalid_arg "Engine.Live.create: d must be >= 1";
    {
      n;
      d;
      strategy = factory ~n ~d;
      meters = Option.map meters (Obs.Metrics.resolve metrics);
      window = Array.make 256 closed;
      first_served = Array.make 256 false;
      low = 0;
      expiry = Array.init d (fun _ -> Ivec.create ());
      busy = Array.make n (-1);
      round_first = 0;
      next_id = 0;
      round = 0;
      live = 0;
      wasted = 0;
    }

  let pending t = t.live
  let submitted t = t.next_id
  let round t = t.round

  let grow t =
    let low = t.low and next = t.next_id in
    t.window <- Id_ring.grow t.window ~low ~next closed;
    t.first_served <- Id_ring.grow t.first_served ~low ~next false

  (* Queue a valid request arriving at the current round whose id is
     the next fresh one. *)
  let admit t (r : Request.t) =
    let id = t.next_id in
    if id - t.low >= Array.length t.window then grow t;
    let i = Id_ring.cell t.window id in
    t.window.(i) <- r;
    t.first_served.(i) <- false;
    Ivec.push t.expiry.(Request.last_round r mod t.d) id;
    t.next_id <- id + 1;
    t.live <- t.live + 1

  let rec out_of_range n (alternatives : int array) i =
    i < Array.length alternatives
    && (alternatives.(i) >= n || out_of_range n alternatives (i + 1))

  let submit_array t ~alternatives ~deadline =
    if deadline > t.d then
      Error (Printf.sprintf "deadline %d exceeds the server's d=%d" deadline t.d)
    else if out_of_range t.n alternatives 0 then
      Error
        (Printf.sprintf "resource out of range (n=%d): %s" t.n
           (String.concat ","
              (List.filter_map
                 (fun a -> if a >= t.n then Some (string_of_int a) else None)
                 (Array.to_list alternatives))))
    else
      match
        Request.of_array ~id:t.next_id ~arrival:t.round ~alternatives
          ~deadline
      with
      | exception Invalid_argument m -> Error m
      | r ->
        admit t r;
        Ok r.Request.id

  let submit t ~alternatives ~deadline =
    submit_array t ~alternatives:(Array.of_list alternatives) ~deadline

  (* This round's arrivals, ids [round_first .. next_id - 1], in one
     copy out of the ring. *)
  let arrivals t =
    let count = t.next_id - t.round_first in
    if count = 0 then [||]
    else begin
      let len = Array.length t.window in
      let at = Id_ring.cell t.window t.round_first in
      if at + count <= len then Array.sub t.window at count
      else begin
        let a = Array.make count closed in
        Array.blit t.window at a 0 (len - at);
        Array.blit t.window 0 a (len - at) (count - (len - at));
        a
      end
    end

  (* Validate one round's services against the model rules, calling
     [served] on each first service in service order; returns how many
     there were.  Re-serving a request is legal but wasted (the paper's
     EDF duplicates). *)
  let rec apply t ~round ~served k = function
    | [] -> k
    | { Strategy.request; resource } :: rest ->
      if request < 0 || request >= t.next_id then
        fail "round %d: unknown request %d" round request;
      let i = Id_ring.cell t.window request in
      if t.window.(i).Request.id <> request then
        fail "round %d: request %d outside its window" round request;
      if resource < 0 || resource >= t.n then
        fail "round %d: resource %d out of range" round resource;
      if not (Request.has_alternative t.window.(i) resource) then
        fail "round %d: resource %d not an alternative of request %d"
          round resource request;
      if t.busy.(resource) = round then
        fail "round %d: resource %d used twice" round resource;
      t.busy.(resource) <- round;
      if t.first_served.(i) then begin
        t.wasted <- t.wasted + 1;
        apply t ~round ~served k rest
      end
      else begin
        t.first_served.(i) <- true;
        served request resource;
        apply t ~round ~served (k + 1) rest
      end

  let step_with t ~served ~expired =
    let round = t.round in
    let arrivals = arrivals t in
    t.round_first <- t.next_id;
    let k =
      match t.meters with
      | None ->
        apply t ~round ~served 0 (t.strategy.Strategy.step ~round ~arrivals)
      | Some m ->
        let wasted0 = t.wasted in
        let t0 = Obs.Span.start () in
        let services = t.strategy.Strategy.step ~round ~arrivals in
        M.record m.step_us (Obs.Span.elapsed t0 *. 1e6);
        let k = apply t ~round ~served 0 services in
        M.add m.rounds 1;
        M.add m.arrivals (Array.length arrivals);
        M.add m.served k;
        M.add m.wasted (t.wasted - wasted0);
        M.record m.served_per_round (float_of_int k);
        k
    in
    let bucket = t.expiry.(round mod t.d) in
    let unserved = ref 0 in
    for j = 0 to Ivec.length bucket - 1 do
      let id = Ivec.get bucket j in
      let i = Id_ring.cell t.window id in
      if not t.first_served.(i) then begin
        incr unserved;
        expired id
      end;
      t.window.(i) <- closed
    done;
    Ivec.clear bucket;
    t.low <- Id_ring.trim t.window ~low:t.low ~next:t.next_id closed;
    t.live <- t.live - k - !unserved;
    t.round <- round + 1;
    round

  let step t =
    let served = ref [] and expired = ref [] in
    let round =
      step_with t
        ~served:(fun id res -> served := (id, res) :: !served)
        ~expired:(fun id -> expired := id :: !expired)
    in
    { round; served = List.rev !served; expired = List.rev !expired }
end

(* ------------------------------------------------------------------ *)
(* Batch drivers: a fresh [Live] stepped for [horizon] rounds, [arrive]
   admitting each round's requests first.  First services are recorded
   by id ([at] is -1 until served) to build the [Outcome]; an observer
   sees them as they happen. *)

type observer = {
  arrivals : int -> Request.t array -> unit;
  served : int -> int -> unit;
  expired : int -> int -> unit;
  round_done : int -> unit;
}

let unobserved =
  let ignore2 _ _ = () in
  { arrivals = ignore2; served = ignore2; expired = ignore2; round_done = ignore }

let drive ?metrics ?(observer = unobserved) ~n ~d ~horizon ~arrive ~instance
    factory =
  let live = Live.create ?metrics ~n ~d factory in
  let resource = Ivec.create () and at = Ivec.create () in
  let is_served id = id >= 0 && id < Ivec.length at && Ivec.get at id >= 0 in
  for round = 0 to horizon - 1 do
    arrive live ~round ~is_served;
    for _ = Ivec.length at to live.Live.next_id - 1 do
      Ivec.push resource (-1);
      Ivec.push at (-1)
    done;
    ignore
      (Live.step_with live
         ~served:(fun id res ->
             Ivec.set resource id res;
             Ivec.set at id round;
             observer.served id round)
         ~expired:(fun id -> observer.expired id round));
    observer.round_done round
  done;
  let inst = instance () in
  let per_round_served = Array.make (max inst.Instance.horizon 1) 0 in
  let served_at =
    Array.init (Instance.n_requests inst) (fun id ->
        let round = Ivec.get at id in
        if round < 0 then None
        else begin
          per_round_served.(round) <- per_round_served.(round) + 1;
          Some (Ivec.get resource id, round)
        end)
  in
  {
    Outcome.instance = inst;
    strategy_name = live.Live.strategy.Strategy.name;
    served_at;
    served = Array.fold_left ( + ) 0 per_round_served;
    wasted = live.Live.wasted;
    per_round_served;
  }

let run ?metrics ?observer inst factory =
  drive ?metrics ?observer ~n:inst.Instance.n_resources ~d:inst.Instance.d
    ~horizon:inst.Instance.horizon
    ~arrive:(fun live ~round ~is_served:_ ->
        let arrivals = Instance.arrivals_at inst round in
        Array.iter (Live.admit live) arrivals;
        Option.iter (fun o -> o.arrivals round arrivals) observer)
    ~instance:(fun () -> inst)
    factory

let run_adaptive ?metrics ~n ~d ~last_arrival_round ~adversary factory =
  if last_arrival_round < 0 then
    invalid_arg "Engine.run_adaptive: negative last_arrival_round";
  let emitted = ref [] (* reversed *) in
  let arrive live ~round ~is_served =
    if round <= last_arrival_round then
      List.iter
        (fun (r : Request.t) ->
           if r.Request.arrival <> round then
             invalid_arg
               (Printf.sprintf
                  "Engine.run_adaptive: adversary emitted arrival %d at round %d"
                  r.Request.arrival round);
           match
             Live.submit live
               ~alternatives:(Array.to_list r.Request.alternatives)
               ~deadline:r.Request.deadline
           with
           | Ok _ -> emitted := r :: !emitted
           | Error m -> invalid_arg ("Engine.run_adaptive: " ^ m))
        (adversary ~round ~is_served)
  in
  drive ?metrics ~n ~d ~horizon:(last_arrival_round + d) ~arrive
    ~instance:(fun () ->
        Instance.build ~n_resources:n ~d (List.rev !emitted))
    factory
