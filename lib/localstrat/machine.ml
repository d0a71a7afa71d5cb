(* The local protocols' decision state machine.  Every decision below
   is taken from the outcomes the carrier reports; what a carrier does
   with a message on the way (render it, route it to a node) and with
   an event (write a replica, answer the sender) is its own business. *)

module Request = Sched.Request
module Net = Distnet.Net
module Slots = Sched.Slots

type status = Net.status = Delivered | Bounced | Dead

type msg =
  | Offer of Request.t
  | Probe of Request.t
  | Cancel of { q : int; old_res : int; old_t : int }
  | Rival of Request.t
  | Swap of { r : int; q : Request.t }
  | Rehome of { r : Request.t; res : int }

type envelope = msg Net.message

type event =
  | Accept of { r : Request.t; res : int; slot : int }
  | Full of { q : int; res : int }
  | Ack of { q : Request.t; res : int; slot : int option }
  | Released of { res : int; slot : int }
  | Swapped of { q : Request.t; res : int; round : int }

type carrier = {
  exchange : envelope list -> (envelope * status) list;
  event : event -> unit;
  confirm : res:int -> round:int -> int -> bool;
}

(* The live requests sit in a Sched.Id_ring, as in Engine.Live:
   request [id] occupies cell [id land (length - 1)] of [window], with
   its slot (resource and round, resource -1 while unscheduled) in the
   same cell of [res_of] and [slot_of].  Ids are admitted in ascending
   order, so the live ones lie in [low .. next - 1] and a walk of that
   span visits them in id order; a cell outside it, or of an id that
   left, holds [vacant]. *)
type t = {
  n : int;
  slots : int Slots.t; (* (resource, round) -> request id *)
  mutable window : Request.t array;
  mutable res_of : int array;
  mutable slot_of : int array;
  mutable low : int;  (* ids below are gone *)
  mutable next : int; (* one past the last admitted id *)
  mutable live : int;
  pick : int array;   (* phase 2 scratch: resource -> acknowledged id *)
}

let vacant =
  Request.of_array ~id:(-1) ~arrival:0 ~alternatives:[| 0 |] ~deadline:1

let create ~n ~d =
  {
    n;
    slots = Slots.create ~n ~d ~dummy:(-1);
    window = Array.make 256 vacant;
    res_of = Array.make 256 (-1);
    slot_of = Array.make 256 0;
    low = 0;
    next = 0;
    live = 0;
    pick = Array.make n (-1);
  }

let capacity ~compact ~d = if compact then max d ((2 * d) - 2) else d

let cell t id = Sched.Id_ring.cell t.window id

let grow t =
  let low = t.low and next = t.next in
  t.window <- Sched.Id_ring.grow t.window ~low ~next vacant;
  t.res_of <- Sched.Id_ring.grow t.res_of ~low ~next (-1);
  t.slot_of <- Sched.Id_ring.grow t.slot_of ~low ~next 0

let admit t (r : Request.t) =
  let id = r.Request.id in
  if id < t.next then
    invalid_arg
      (Printf.sprintf "Machine.admit: id %d not above the last admitted (%d)"
         id (t.next - 1));
  if t.live = 0 then t.low <- id;
  while id - t.low >= Array.length t.window do
    grow t
  done;
  let i = cell t id in
  t.window.(i) <- r;
  t.res_of.(i) <- -1;
  t.next <- id + 1;
  t.live <- t.live + 1

let is_live t id =
  id >= t.low && id < t.next && t.window.(cell t id).Request.id = id

let find t id = if is_live t id then Some t.window.(cell t id) else None
let pending t = t.live

(* the unscheduled requests of [low .. id], ascending, before [acc] *)
let rec unscheduled_to t id acc =
  if id < t.low then acc
  else
    let i = cell t id in
    let r = t.window.(i) in
    unscheduled_to t (id - 1)
      (if r.Request.id = id && t.res_of.(i) < 0 then r :: acc else acc)

let unscheduled t = unscheduled_to t (t.next - 1) []

let unassign t i =
  if t.res_of.(i) >= 0 then begin
    Slots.free t.slots ~res:t.res_of.(i) ~round:t.slot_of.(i);
    t.res_of.(i) <- -1
  end

let remove t i =
  unassign t i;
  t.window.(i) <- vacant;
  t.live <- t.live - 1

(* ids below the first live one are gone *)
let advance_low t =
  t.low <- Sched.Id_ring.trim t.window ~low:t.low ~next:t.next vacant

let expire t ~round =
  let rec go id acc =
    if id < t.low then acc
    else
      let i = cell t id in
      let r = t.window.(i) in
      if r.Request.id = id && Request.last_round r < round then begin
        remove t i;
        go (id - 1) (id :: acc)
      end
      else go (id - 1) acc
  in
  let dead = go (t.next - 1) [] in
  advance_low t;
  dead

let evict t ~lost =
  let rec go id acc =
    if id < t.low then acc
    else
      let i = cell t id in
      if t.window.(i).Request.id = id && t.res_of.(i) >= 0 && lost t.res_of.(i)
      then begin
        unassign t i;
        go (id - 1) (id :: acc)
      end
      else go (id - 1) acc
  in
  go (t.next - 1) []

let first_free t ~round ~res (r : Request.t) =
  Slots.first_free t.slots ~res ~from:(max round r.Request.arrival)
    ~last:(Request.last_round r)

let not_live id =
  invalid_arg (Printf.sprintf "Machine: request %d is not live" id)

(* record [id]'s slot, which the caller has just taken *)
let assign t id ~res ~slot =
  if not (is_live t id) then not_live id;
  let i = cell t id in
  t.res_of.(i) <- res;
  t.slot_of.(i) <- slot

let try_accept t ~round ~res (r : Request.t) =
  if not (is_live t r.Request.id) then not_live r.Request.id;
  match first_free t ~round ~res r with
  | None -> None
  | Some slot ->
    assign t r.Request.id ~res ~slot;
    Slots.set t.slots ~res ~round:slot r.Request.id;
    Some slot

let message ~sender ~dst ~deadline_key payload =
  { Net.sender; dst; deadline_key; tagged = false; payload }

(* a resource handles what it received in EDF order, sender id last *)
let by_deadline ((a : envelope), _) ((b : envelope), _) =
  if a.Net.deadline_key <> b.Net.deadline_key then
    compare a.Net.deadline_key b.Net.deadline_key
  else compare a.Net.sender b.Net.sender

let other_alternative (r : Request.t) res =
  if r.Request.alternatives.(0) = res then r.Request.alternatives.(1)
  else r.Request.alternatives.(0)

(* Ask alternative [alt] of every request that has one ([mk] builds the
   message); the requests without one come back first. *)
let to_alternative ~alt mk reqs =
  List.partition_map
    (fun (r : Request.t) ->
       if alt >= Array.length r.Request.alternatives then Right r
       else
         Left
           (message ~sender:r.Request.id ~dst:r.Request.alternatives.(alt)
              ~deadline_key:(Request.last_round r) (mk r)))
    reqs

(* ------------------------------------------------------------------ *)
(* A_local_fix, and A_local_eager's phase 1 *)

(* One offer round at alternative [alt]; returns the requests still
   unscheduled: those without that alternative, then the undelivered,
   then the rejected. *)
let offer_round t c ~round ~alt senders =
  let msgs, skipped = to_alternative ~alt (fun r -> Offer r) senders in
  let results = c.exchange msgs in
  let rejected =
    List.filter (fun (_, st) -> st = Delivered) results
    |> List.sort by_deadline
    |> List.filter_map (fun ((m : envelope), _) ->
        match m.Net.payload with
        | Offer r ->
          let res = m.Net.dst in
          (match try_accept t ~round ~res r with
           | Some slot ->
             c.event (Accept { r; res; slot });
             None
           | None ->
             c.event (Full { q = r.Request.id; res });
             Some r)
        | _ -> None)
  in
  let failed =
    List.filter_map
      (fun ((m : envelope), st) ->
         match m.Net.payload with
         | Offer r when st <> Delivered -> Some r
         | _ -> None)
      results
  in
  skipped @ failed @ rejected

let fix_round t c ~round newcomers =
  let failed = offer_round t c ~round ~alt:0 newcomers in
  ignore (offer_round t c ~round ~alt:1 failed)

(* ------------------------------------------------------------------ *)
(* A_local_eager *)

type move = Request.t * int * int * int (* r, old res, old slot, new res *)

(* Phase 2, selection round: requests scheduled in the future ask their
   other resource for its free current slot; each such resource
   acknowledges one mover (the lowest id), pre-positioning it there.
   The cancel round that commits the moves is built by the caller. *)
let phase2_select t c ~round : move list =
  let rec movers id acc =
    if id < t.low then acc
    else
      let i = cell t id in
      let r = t.window.(i) in
      movers (id - 1)
        (if
           r.Request.id = id && t.res_of.(i) >= 0 && t.slot_of.(i) > round
           && Array.length r.Request.alternatives >= 2
         then
           let res = t.res_of.(i) in
           (r, res, t.slot_of.(i), other_alternative r res) :: acc
         else acc)
  in
  let movers = movers (t.next - 1) [] in
  let results =
    c.exchange
      (List.map
         (fun ((r : Request.t), _, _, other) ->
            message ~sender:r.Request.id ~dst:other
              ~deadline_key:(Request.last_round r) (Probe r))
         movers)
  in
  (* results come back in ascending sender order: the first delivered
     probe to a resource with a free current slot is its lowest id *)
  List.iter
    (fun ((m : envelope), st) ->
       let dst = m.Net.dst in
       if
         st = Delivered && t.pick.(dst) < 0
         && not (Slots.mem t.slots ~res:dst ~round)
       then t.pick.(dst) <- m.Net.sender)
    results;
  let moves =
    List.filter
      (fun ((r : Request.t), _, _, other) -> t.pick.(other) = r.Request.id)
      movers
  in
  List.iter (fun ((m : envelope), _) -> t.pick.(m.Net.dst) <- -1) results;
  List.iter
    (fun (r, _, _, other) ->
       c.event (Ack { q = r; res = other; slot = Some round }))
    moves;
  moves

(* Cancels release an acknowledged move's old slot.  They carry the
   highest LDF rank, so the capacity cut never breaks a move (at most
   d-1 target one resource, below every capacity in use). *)
let cancel_msgs (moves : move list) =
  List.map
    (fun ((r : Request.t), res, slot, _) ->
       message ~sender:r.Request.id ~dst:res ~deadline_key:max_int
         (Cancel { q = r.Request.id; old_res = res; old_t = slot }))
    moves

(* A delivered or dead cancel commits its move (a dead node lost the old
   slot anyway); a bounced one aborts it: the mover keeps its old slot
   and the acknowledging resource idles. *)
let settle_cancel t c ~round moves ((m : envelope), st) =
  match m.Net.payload with
  | Cancel { q; old_res; old_t } when st <> Bounced ->
    (match Hashtbl.find_opt moves q with
     | Some ((r : Request.t), res, slot, other) ->
       Slots.free t.slots ~res ~round:slot;
       Slots.set t.slots ~res:other ~round r.Request.id;
       assign t r.Request.id ~res:other ~slot:round;
       Hashtbl.remove moves q
     | None -> ());
    if st = Delivered then c.event (Released { res = old_res; slot = old_t })
  | _ -> ()

(* Phase 3 plumbing.  A successful rehome hands the current slot of
   [sw_res] from its occupant [sw_r] (already re-homed) to the rescuing
   request [sw_q]; the tagged notification travels one communication
   round after the rehome. *)
type swap = { sw_q : Request.t; sw_res : int; sw_r : int }

let swap_msgs swaps =
  List.map
    (fun s ->
       {
         Net.sender = s.sw_q.Request.id;
         dst = s.sw_res;
         deadline_key = Request.last_round s.sw_q;
         tagged = true;
         payload = Swap { r = s.sw_r; q = s.sw_q };
       })
    swaps

(* tagged messages are never cut; a dead swap still commits *)
let land_swap t c ~round ~swapped ((m : envelope), st) =
  match m.Net.payload with
  | Swap { r = _; q } ->
    assert (st <> Bounced);
    let res = m.Net.dst in
    Slots.set t.slots ~res ~round q.Request.id;
    assign t q.Request.id ~res ~slot:round;
    swapped.(res) <- true;
    if st = Delivered then c.event (Swapped { q; res; round })
  | _ -> ()

(* One communication round carrying the previous attempt's swap
   notifications, [extra] (the compact variant's cancels) and this
   attempt's rival requests.  Returns the grants:
   resource -> (q, current occupant r, r's other resource). *)
let rival_round t c ~round ~swapped ~moves ~prev_swaps ~extra ~alt pending =
  let rivals, _ = to_alternative ~alt (fun q -> Rival q) pending in
  let results = c.exchange (swap_msgs prev_swaps @ extra @ rivals) in
  (* swaps and cancels settle first, so the grants see the final
     occupancy *)
  List.iter
    (fun x ->
       land_swap t c ~round ~swapped x;
       settle_cancel t c ~round moves x)
    results;
  let grants = Hashtbl.create 16 in
  List.iter
    (fun ((m : envelope), st) ->
       match m.Net.payload with
       | Rival q ->
         let res = m.Net.dst in
         if
           st = Delivered && (not swapped.(res))
           && not (Hashtbl.mem grants res)
         then (
           match Slots.find t.slots ~res ~round with
           | None -> ()
           | Some r_id ->
             (match find t r_id with
              | Some r when Array.length r.Request.alternatives >= 2 ->
                c.event (Ack { q; res; slot = None });
                Hashtbl.replace grants res (q, r, other_alternative r res)
              | Some _ | None -> ()))
       | _ -> ())
    results;
  grants

(* The rehome round: each granted rival forwards the occupant to its
   other resource, which accepts it into a free slot of its window.
   Returns the successful swaps. *)
let rehome_round t c ~round grants =
  let msgs =
    Hashtbl.fold
      (fun res ((q : Request.t), (r : Request.t), s_r) acc ->
         message ~sender:q.Request.id ~dst:s_r
           ~deadline_key:(Request.last_round r) (Rehome { r; res })
         :: acc)
      grants []
  in
  List.sort by_deadline (c.exchange msgs)
  |> List.filter_map (fun ((m : envelope), st) ->
      match m.Net.payload with
      | Rehome { r; res }
        when st = Delivered
             && Slots.find t.slots ~res ~round = Some r.Request.id -> (
          let dst = m.Net.dst in
          match try_accept t ~round ~res:dst r with
          | Some slot ->
            c.event (Accept { r; res = dst; slot });
            (* r re-homed; its old slot waits for the swap *)
            Slots.free t.slots ~res ~round;
            let q, _, _ = Hashtbl.find grants res in
            Some { sw_q = q; sw_res = res; sw_r = r.Request.id }
          | None -> None)
      | _ -> None)

let eager_round t c ~compact ~round =
  (* phase 1 (2 comm rounds) *)
  fix_round t c ~round (unscheduled t);
  (* phase 2: one selection round, then the cancel round -- dedicated
     (9 comm rounds in all) or, compact, merged into phase 3's first
     round (8) *)
  let moves = Hashtbl.create 16 in
  let selected = phase2_select t c ~round in
  List.iter
    (fun (((r : Request.t), _, _, _) as mv) ->
       Hashtbl.replace moves r.Request.id mv)
    selected;
  let pending_cancels =
    if compact then cancel_msgs selected
    else begin
      List.iter (settle_cancel t c ~round moves)
        (c.exchange (cancel_msgs selected));
      []
    end
  in
  (* phase 3 (5 comm rounds): two swap attempts; attempt 1's tagged
     notifications share a round with attempt 2's rival requests *)
  let swapped = Array.make t.n false in
  let grants1 =
    rival_round t c ~round ~swapped ~moves ~prev_swaps:[]
      ~extra:pending_cancels ~alt:0 (unscheduled t)
  in
  let swaps1 = rehome_round t c ~round grants1 in
  let won1 = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace won1 s.sw_q.Request.id ()) swaps1;
  let pending2 =
    List.filter
      (fun (q : Request.t) -> not (Hashtbl.mem won1 q.Request.id))
      (unscheduled t)
  in
  let grants2 =
    rival_round t c ~round ~swapped ~moves ~prev_swaps:swaps1 ~extra:[]
      ~alt:1 pending2
  in
  let swaps2 = rehome_round t c ~round grants2 in
  (* final communication round: attempt 2's tagged notifications *)
  List.iter (land_swap t c ~round ~swapped) (c.exchange (swap_msgs swaps2))

(* ------------------------------------------------------------------ *)

let collect t c ~round =
  let serves = ref [] in
  for res = t.n - 1 downto 0 do
    match Slots.take t.slots ~res ~round with
    | None -> ()
    | Some id ->
      let i = cell t id in
      t.res_of.(i) <- -1;
      if c.confirm ~res ~round id then begin
        t.window.(i) <- vacant;
        t.live <- t.live - 1;
        serves := { Sched.Strategy.request = id; resource = res } :: !serves
      end
  done;
  advance_low t;
  !serves
