module Request = Sched.Request
module Strategy = Sched.Strategy

type state = {
  n : int;
  d : int;
  bias : Strategy.bias;
  coordinate : bool;
  queues : (int, Request.t) Hashtbl.t array; (* per resource: id -> request *)
  (* bucket [last_round mod d]: the requests whose window closes at that
     round, dropped from every queue by the step that closes it (as
     Engine.Live does) *)
  expiry : Request.t list array;
}

(* The request resource [res] serves at [round]: earliest deadline; ties
   by higher bias, then lower id. *)
let pick st ~round res =
  let better (a : Request.t) (b : Request.t) =
    let da = Request.last_round a and db = Request.last_round b in
    if da <> db then da < db
    else begin
      let ba = st.bias ~request:a ~resource:res ~round
      and bb = st.bias ~request:b ~resource:res ~round in
      if ba <> bb then ba > bb else a.Request.id < b.Request.id
    end
  in
  Hashtbl.fold
    (fun _ r best ->
       match best with
       | None -> Some r
       | Some b -> if better r b then Some r else best)
    st.queues.(res) None

let drop st (r : Request.t) =
  Array.iter (fun res -> Hashtbl.remove st.queues.(res) r.Request.id)
    r.Request.alternatives

let step st ~round ~arrivals =
  Array.iter
    (fun (r : Request.t) ->
       let b = Request.last_round r mod st.d in
       st.expiry.(b) <- r :: st.expiry.(b);
       Array.iter (fun res -> Hashtbl.replace st.queues.(res) r.Request.id r)
         r.Request.alternatives)
    arrivals;
  let serves = ref [] in
  for res = 0 to st.n - 1 do
    match pick st ~round res with
    | None -> ()
    | Some r ->
      (* coordinated: a served request leaves every queue, so no other
         resource serves it again, this round or later *)
      if st.coordinate then drop st r
      else Hashtbl.remove st.queues.(res) r.Request.id;
      serves := { Strategy.request = r.Request.id; resource = res } :: !serves
  done;
  let b = round mod st.d in
  List.iter (drop st) st.expiry.(b);
  st.expiry.(b) <- [];
  List.rev !serves

let make ~coordinate ~name ?(bias = Strategy.no_bias) () : Strategy.factory =
 fun ~n ~d ->
  let queues = Array.init n (fun _ -> Hashtbl.create 16) in
  let st = { n; d; bias; coordinate; queues; expiry = Array.make d [] } in
  { Strategy.name = name; step = (fun ~round ~arrivals -> step st ~round ~arrivals) }

let independent ?bias () = make ~coordinate:false ~name:"EDF" ?bias ()
let coordinated ?bias () = make ~coordinate:true ~name:"EDF_coord" ?bias ()
