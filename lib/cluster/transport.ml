(* The live message fabric.  Each message is rendered to its wire line
   and parsed back on the way through — the transport refuses to pass
   anything the grammar cannot carry — and data messages then contest
   per-resource capacity through the same Distnet.Budget LDF cut the
   simulator uses. *)

module Budget = Distnet.Budget

type status = Distnet.Net.status = Delivered | Bounced | Dead

type t = {
  n : int;
  capacity : int;
  priority : sender:int -> dst:int -> int;
  metrics : Obs.Metrics.t option;
  mutable comm_rounds : int;
  mutable messages : int;
  mutable bounced : int;
  mutable dropped_dead : int;
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
    metrics = Obs.Metrics.resolve metrics;
    comm_rounds = 0;
    messages = 0;
    bounced = 0;
    dropped_dead = 0;
  }

let record t key by =
  match t.metrics with
  | None -> ()
  | Some m -> Obs.Metrics.incr ~by m key

(* The wire gate: a message exists only as its rendered line.  Parsing
   it back and comparing catches renderer/parser drift at the moment it
   happens instead of three protocol layers later. *)
let roundtrip msg =
  let line = Wire.render msg in
  if String.length line > Wire.max_line then
    invalid_arg
      (Printf.sprintf "Transport: oversize wire line (%d bytes)"
         (String.length line));
  match Wire.parse line with
  | Ok parsed when parsed = msg -> parsed
  | Ok _ -> invalid_arg ("Transport: wire round-trip drift on: " ^ line)
  | Error e ->
    invalid_arg (Printf.sprintf "Transport: unparsable wire line %S: %s"
                   line e)

let exchange t ~owner ~alive envs =
  if envs <> [] then begin
    t.comm_rounds <- t.comm_rounds + 1;
    record t "cluster.comm_rounds" 1
  end;
  let indexed = List.mapi (fun i e -> (i, e)) envs in
  t.messages <- t.messages + List.length envs;
  record t "cluster.msgs" (List.length envs);
  (* the wire pass: every envelope must survive its own rendering *)
  let indexed =
    List.map
      (fun (i, e) ->
         match roundtrip (Wire.Data e) with
         | Wire.Data e' -> (i, e')
         | _ -> assert false)
      indexed
  in
  let dead = Hashtbl.create 8 in
  let contesting =
    List.filter_map
      (fun (i, (e : Wire.env)) ->
         if e.Wire.dst < 0 || e.Wire.dst >= t.n then
           invalid_arg "Transport.exchange: destination out of range";
         if not (alive (owner e.Wire.dst)) then begin
           Hashtbl.replace dead i ();
           None
         end
         else
           Some
             ( i,
               {
                 Budget.b_sender = e.Wire.sender;
                 b_dst = e.Wire.dst;
                 b_deadline = e.Wire.deadline_key;
                 b_tagged = e.Wire.tagged;
               } ))
      indexed
  in
  let delivered =
    Budget.deliver ~n:t.n ~capacity:t.capacity ~priority:t.priority
      contesting
  in
  List.map
    (fun (i, e) ->
       let status =
         if Hashtbl.mem dead i then Dead
         else if Hashtbl.mem delivered i then Delivered
         else Bounced
       in
       (match status with
        | Delivered -> ()
        | Bounced ->
          t.bounced <- t.bounced + 1;
          record t "cluster.bounced" 1
        | Dead ->
          t.dropped_dead <- t.dropped_dead + 1;
          record t "cluster.dropped_dead" 1);
       (e, status))
    indexed

let respond t reply =
  record t "cluster.replies" 1;
  match roundtrip (Wire.Reply reply) with
  | Wire.Reply r -> r
  | _ -> assert false

let control t ctrl =
  record t "cluster.ctrl_msgs" 1;
  match roundtrip (Wire.Control ctrl) with
  | Wire.Control c -> c
  | _ -> assert false

let tick t =
  t.comm_rounds <- t.comm_rounds + 1;
  record t "cluster.comm_rounds" 1

let comm_rounds t = t.comm_rounds
let messages t = t.messages
let bounced t = t.bounced
let dropped_dead t = t.dropped_dead
