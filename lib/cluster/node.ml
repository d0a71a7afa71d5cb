(* The slot replica.  Deliberately passive: every transition is driven
   by the router applying a delivered wire message, so the replica's
   content is always explainable by the message log. *)

module Slots = Sched.Slots

type t = {
  node_id : int;
  d : int;
  slots : Wire.reqinfo Slots.t;
  mutable alive : bool;
}

let vacant = { Wire.rid = -1; alternatives = []; arrival = 0; deadline = 1 }

let create ~id ~n ~d =
  { node_id = id; d; slots = Slots.create ~n ~d ~dummy:vacant; alive = true }

let id t = t.node_id
let alive t = t.alive

let kill t =
  Slots.clear t.slots;
  t.alive <- false

let revive t =
  if t.alive then invalid_arg "Node.revive: already alive";
  t.alive <- true

let check_alive t op =
  if not t.alive then invalid_arg ("Node." ^ op ^ ": node is dead")

let set_slot t ~res ~round ri =
  check_alive t "set_slot";
  Slots.set t.slots ~res ~round ri

let free_slot t ~res ~round =
  check_alive t "free_slot";
  Slots.free t.slots ~res ~round

let take_slot t ~res ~round =
  check_alive t "take_slot";
  Slots.take t.slots ~res ~round

let export t ~res ~from_round =
  check_alive t "export";
  List.init t.d (fun i -> from_round + i)
  |> List.filter_map (fun round ->
      Option.map (fun ri -> (round, ri)) (Slots.take t.slots ~res ~round))

let import t ~res entries =
  check_alive t "import";
  List.iter
    (fun (round, ri) ->
       if Slots.mem t.slots ~res ~round then
         invalid_arg "Node.import: slot already occupied";
       Slots.set t.slots ~res ~round ri)
    entries
