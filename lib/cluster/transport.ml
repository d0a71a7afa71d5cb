(* The live message fabric.  Each message is rendered to its wire line
   and parsed back on the way through — the transport refuses to pass
   anything the grammar cannot carry — and data messages then contest
   per-resource capacity through the same Distnet.Budget LDF cut the
   simulator uses. *)

module Budget = Distnet.Budget

type status = Distnet.Net.status = Delivered | Bounced | Dead

(* the [cluster.*] traffic counters, bound once per transport *)
type handles = {
  h_comm_rounds : Obs.Metrics.counter;
  h_msgs : Obs.Metrics.counter;
  h_bounced : Obs.Metrics.counter;
  h_dropped_dead : Obs.Metrics.counter;
  h_replies : Obs.Metrics.counter;
  h_ctrl_msgs : Obs.Metrics.counter;
}

let handles m =
  let c name = Obs.Metrics.register_counter m ("cluster." ^ name) in
  {
    h_comm_rounds = c "comm_rounds";
    h_msgs = c "msgs";
    h_bounced = c "bounced";
    h_dropped_dead = c "dropped_dead";
    h_replies = c "replies";
    h_ctrl_msgs = c "ctrl_msgs";
  }

type t = {
  n : int;
  capacity : int;
  priority : sender:int -> dst:int -> int;
  handles : handles option;
  mutable comm_rounds : int;
  mutable messages : int;
  mutable bounced : int;
  mutable dropped_dead : int;
  mutable replies : int;
  mutable ctrl_msgs : int;
}

let create ~n ~capacity ?priority ?metrics () =
  if n < 1 then invalid_arg "Transport.create: n < 1";
  if capacity < 1 then invalid_arg "Transport.create: capacity < 1";
  {
    n;
    capacity;
    priority =
      (match priority with
       | Some p -> p
       | None -> fun ~sender:_ ~dst:_ -> 0);
    handles = Option.map handles (Obs.Metrics.resolve metrics);
    comm_rounds = 0;
    messages = 0;
    bounced = 0;
    dropped_dead = 0;
    replies = 0;
    ctrl_msgs = 0;
  }

(* Copy a gain of a private counter into the registry.  A zero gain is
   skipped, so a counter appears in the dumps once it has moved. *)
let meter t pick by =
  match t.handles with
  | Some h when by > 0 -> Obs.Metrics.add (pick h) by
  | Some _ | None -> ()

(* The wire gate: a message exists only as its rendered line.  Parsing
   it back and comparing catches renderer/parser drift at the moment it
   happens instead of three protocol layers later.  The line is written
   into the domain's Codec writer and parsed where it lies, in one pass;
   only an error copies it out.  Every message takes this path before
   the capacity cut, so a bounced, tagged or dead-addressed line is
   checked like a delivered one. *)
let roundtrip msg =
  let w = Sched.Codec.writer () in
  let len = Wire.put w msg in
  if len > Wire.max_line then
    invalid_arg (Printf.sprintf "Transport: oversize wire line (%d bytes)" len);
  match Wire.parse_prefix (Sched.Codec.view w) len with
  | Ok parsed when Wire.equal parsed msg -> parsed
  | Ok _ ->
    invalid_arg
      ("Transport: wire round-trip drift on: " ^ Sched.Codec.contents w len)
  | Error e ->
    invalid_arg
      (Printf.sprintf "Transport: unparsable wire line %S: %s"
         (Sched.Codec.contents w len) e)

(* Messages are arrays indexed by their position in the input list,
   which is also the LDF cut's final tie-break. *)
let exchange t ~owner ~alive envs =
  let msgs = Array.of_list envs in
  let k = Array.length msgs in
  if k > 0 then begin
    t.comm_rounds <- t.comm_rounds + 1;
    meter t (fun h -> h.h_comm_rounds) 1
  end;
  t.messages <- t.messages + k;
  meter t (fun h -> h.h_msgs) k;
  (* the wire pass: every envelope must survive its own rendering *)
  for i = 0 to k - 1 do
    match roundtrip (Wire.Data msgs.(i)) with
    | Wire.Data e -> msgs.(i) <- e
    | _ -> assert false
  done;
  (* a message to a resource on a dead node never reaches a mailbox *)
  let contesting =
    Array.map
      (fun (e : Wire.env) ->
         if e.Wire.dst < 0 || e.Wire.dst >= t.n then
           invalid_arg "Transport.exchange: destination out of range";
         if alive (owner e.Wire.dst) then
           Some
             {
               Budget.b_sender = e.Wire.sender;
               b_dst = e.Wire.dst;
               b_deadline = e.Wire.deadline_key;
               b_tagged = e.Wire.tagged;
             }
         else None)
      msgs
  in
  let delivered =
    Budget.deliver ~n:t.n ~capacity:t.capacity ~priority:t.priority
      contesting
  in
  let bounced0 = t.bounced and dead0 = t.dropped_dead in
  let out = ref [] in
  for i = k - 1 downto 0 do
    let status =
      if delivered.(i) then Delivered
      else if Option.is_none contesting.(i) then begin
        t.dropped_dead <- t.dropped_dead + 1;
        Dead
      end
      else begin
        t.bounced <- t.bounced + 1;
        Bounced
      end
    in
    out := (msgs.(i), status) :: !out
  done;
  meter t (fun h -> h.h_bounced) (t.bounced - bounced0);
  meter t (fun h -> h.h_dropped_dead) (t.dropped_dead - dead0);
  !out

let respond t reply =
  t.replies <- t.replies + 1;
  meter t (fun h -> h.h_replies) 1;
  match roundtrip (Wire.Reply reply) with
  | Wire.Reply r -> r
  | _ -> assert false

let control t ctrl =
  t.ctrl_msgs <- t.ctrl_msgs + 1;
  meter t (fun h -> h.h_ctrl_msgs) 1;
  match roundtrip (Wire.Control ctrl) with
  | Wire.Control c -> c
  | _ -> assert false

let tick t =
  t.comm_rounds <- t.comm_rounds + 1;
  meter t (fun h -> h.h_comm_rounds) 1

let comm_rounds t = t.comm_rounds
let messages t = t.messages
let bounced t = t.bounced
let dropped_dead t = t.dropped_dead
let replies t = t.replies
let ctrl_msgs t = t.ctrl_msgs
