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
   the engine holds open windows only: [window] maps each open id to
   its request and served flag, and bucket [last_round mod d] of
   [expiry] lists the ids whose window closes at that round, ascending
   because ids are handed out in order.  The step that closes a window
   drops its entries, so the state is bounded by the requests in
   flight, not by history. *)

module Live = struct
  type outcome = {
    round : int;                (** the round just executed *)
    served : (int * int) list;
        (** (request id, resource) of first services, in service order *)
    expired : int list;         (** ids whose window closed unserved *)
  }

  type entry = { req : Request.t; mutable was_served : bool }

  type t = {
    n : int;
    d : int;
    strategy : Strategy.t;
    metrics : Obs.Metrics.t option;
    window : (int, entry) Hashtbl.t;  (* open-window id -> entry *)
    expiry : Ivec.t array;            (* last_round mod d -> ids *)
    busy : int array;                 (* resource -> last round it served *)
    mutable queued : Request.t list;  (* reversed arrivals *)
    mutable next_id : int;
    mutable round : int;
    mutable live : int;               (* admitted, no terminal yet *)
    mutable wasted : int;
  }

  let create ?metrics ~n ~d factory =
    if n < 1 then invalid_arg "Engine.Live.create: n must be >= 1";
    if d < 1 then invalid_arg "Engine.Live.create: d must be >= 1";
    {
      n;
      d;
      strategy = factory ~n ~d;
      metrics = Obs.Metrics.resolve metrics;
      window = Hashtbl.create 256;
      expiry = Array.init d (fun _ -> Ivec.create ());
      busy = Array.make n (-1);
      queued = [];
      next_id = 0;
      round = 0;
      live = 0;
      wasted = 0;
    }

  let pending t = t.live
  let submitted t = t.next_id

  (* Queue a valid request arriving at the current round whose id is
     the next fresh one. *)
  let admit t (r : Request.t) =
    Hashtbl.add t.window r.id { req = r; was_served = false };
    Ivec.push t.expiry.(Request.last_round r mod t.d) r.id;
    t.queued <- r :: t.queued;
    t.next_id <- t.next_id + 1;
    t.live <- t.live + 1

  let submit t ~alternatives ~deadline =
    if deadline > t.d then
      Error (Printf.sprintf "deadline %d exceeds the server's d=%d" deadline t.d)
    else if List.exists (fun a -> a >= t.n) alternatives then
      Error
        (Printf.sprintf "resource out of range (n=%d): %s" t.n
           (String.concat ","
              (List.map string_of_int
                 (List.filter (fun a -> a >= t.n) alternatives))))
    else
      match Request.make ~arrival:t.round ~alternatives ~deadline with
      | exception Invalid_argument m -> Error m
      | proto ->
        let id = t.next_id in
        admit t (Request.with_id proto id);
        Ok id

  (* Validate one round's services against the model rules; returns the
     first services as (id, resource), in service order.  Re-serving a
     request is legal but wasted (the paper's EDF duplicates). *)
  let apply t ~round services =
    List.fold_left
      (fun first { Strategy.request; resource } ->
         let e =
           match Hashtbl.find_opt t.window request with
           | Some e -> e
           | None when request >= 0 && request < t.next_id ->
             fail "round %d: request %d outside its window" round request
           | None -> fail "round %d: unknown request %d" round request
         in
         if resource < 0 || resource >= t.n then
           fail "round %d: resource %d out of range" round resource;
         if not (Request.has_alternative e.req resource) then
           fail "round %d: resource %d not an alternative of request %d"
             round resource request;
         if t.busy.(resource) = round then
           fail "round %d: resource %d used twice" round resource;
         t.busy.(resource) <- round;
         if e.was_served then begin
           t.wasted <- t.wasted + 1;
           first
         end
         else begin
           e.was_served <- true;
           (request, resource) :: first
         end)
      [] services
    |> List.rev

  let step t =
    let round = t.round in
    let arrivals = Array.of_list (List.rev t.queued) in
    t.queued <- [];
    let served =
      match t.metrics with
      | None -> apply t ~round (t.strategy.Strategy.step ~round ~arrivals)
      | Some m ->
        let wasted0 = t.wasted in
        let t0 = Obs.Span.start () in
        let services = t.strategy.Strategy.step ~round ~arrivals in
        Obs.Metrics.observe m "engine.step_us" (Obs.Span.elapsed t0 *. 1e6);
        let served = apply t ~round services in
        let k = List.length served in
        Obs.Metrics.incr m "engine.rounds";
        Obs.Metrics.incr ~by:(Array.length arrivals) m "engine.arrivals";
        Obs.Metrics.incr ~by:k m "engine.served";
        Obs.Metrics.incr ~by:(t.wasted - wasted0) m "engine.wasted";
        Obs.Metrics.observe m "engine.served_per_round" (float_of_int k);
        served
    in
    let bucket = t.expiry.(round mod t.d) in
    let expired = ref [] in
    for i = Ivec.length bucket - 1 downto 0 do
      let id = Ivec.get bucket i in
      if not (Hashtbl.find t.window id).was_served then
        expired := id :: !expired;
      Hashtbl.remove t.window id
    done;
    Ivec.clear bucket;
    t.live <- t.live - List.length served - List.length !expired;
    t.round <- round + 1;
    { round; served; expired = !expired }
end

(* ------------------------------------------------------------------ *)
(* Batch drivers: a fresh [Live] stepped for [horizon] rounds, [arrive]
   admitting each round's requests first.  First services are recorded
   by id ([at] is -1 until served) to build the [Outcome]. *)

let drive ?metrics ~n ~d ~horizon ~arrive ~instance factory =
  let live = Live.create ?metrics ~n ~d factory in
  let resource = Ivec.create () and at = Ivec.create () in
  let is_served id = id >= 0 && id < Ivec.length at && Ivec.get at id >= 0 in
  for round = 0 to horizon - 1 do
    arrive live ~round ~is_served;
    for _ = Ivec.length at to live.Live.next_id - 1 do
      Ivec.push resource (-1);
      Ivec.push at (-1)
    done;
    List.iter
      (fun (id, res) ->
         Ivec.set resource id res;
         Ivec.set at id round)
      (Live.step live).Live.served
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

let run ?metrics inst factory =
  drive ?metrics ~n:inst.Instance.n_resources ~d:inst.Instance.d
    ~horizon:inst.Instance.horizon
    ~arrive:(fun live ~round ~is_served:_ ->
        Array.iter (Live.admit live) (Instance.arrivals_at inst round))
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
