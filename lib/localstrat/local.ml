(* The local strategies over the synchronous simulator: Machine driven
   by a Distnet.Net carrier.  The simulator has no replicas to write and
   nothing to confirm, so the hooks are empty. *)

module Strategy = Sched.Strategy
module Net = Distnet.Net

type stats = {
  scheduling_rounds : int;
  comm_rounds_total : int;
  comm_rounds_max : int;
  messages : int;
  bounced : int;
}

type state = {
  m : Machine.t;
  net : Net.t;
  carrier : Machine.carrier;
  mutable sched_rounds : int;
  mutable max_cr : int;
}

let net_carrier net =
  {
    Machine.exchange = Net.deliver net;
    event = ignore;
    confirm = (fun ~res:_ ~round:_ _ -> true);
  }

let stats_of st =
  {
    scheduling_rounds = st.sched_rounds;
    comm_rounds_total = Net.comm_rounds st.net;
    comm_rounds_max = st.max_cr;
    messages = Net.messages_sent st.net;
    bounced = Net.messages_bounced st.net;
  }

(* One scheduling round: expire, admit the arrivals, run the protocol's
   communication rounds, serve. *)
let step st decide ~round ~arrivals =
  st.sched_rounds <- st.sched_rounds + 1;
  let cr0 = Net.comm_rounds st.net in
  ignore (Machine.expire st.m ~round);
  Array.iter (Machine.admit st.m) arrivals;
  decide st.m st.carrier ~round arrivals;
  st.max_cr <- max st.max_cr (Net.comm_rounds st.net - cr0);
  Machine.collect st.m st.carrier ~round

let make_factory ~name ~capacity_of ~decide ?(loss = 0.0) ?priority ?metrics
    () =
  let latest = ref None in
  let factory : Strategy.factory =
   fun ~n ~d ->
    let net =
      Net.create ~n ~capacity:(capacity_of d) ?priority ~loss
        ~loss_rng:(Prelude.Rng.create ~seed:1) ?metrics ()
    in
    let st =
      { m = Machine.create ~n ~d; net; carrier = net_carrier net;
        sched_rounds = 0; max_cr = 0 }
    in
    latest := Some st;
    { Strategy.name; step = step st decide }
  in
  let stats () =
    match !latest with
    | Some st -> stats_of st
    | None -> invalid_arg (name ^ ": no run yet")
  in
  (factory, stats)

let fix_with_stats ?loss ?priority ?metrics () =
  make_factory ~name:"A_local_fix"
    ~capacity_of:(fun d -> Machine.capacity ~compact:false ~d)
    ~decide:(fun m c ~round arrivals ->
        Machine.fix_round m c ~round (Array.to_list arrivals))
    ?loss ?priority ?metrics ()

let eager_with_stats ?(compact = false) ?loss ?priority ?metrics () =
  make_factory
    ~name:(if compact then "A_local_eager_compact" else "A_local_eager")
    ~capacity_of:(fun d -> Machine.capacity ~compact ~d)
    ~decide:(fun m c ~round _ -> Machine.eager_round m c ~compact ~round)
    ?loss ?priority ?metrics ()

let fix ?loss ?priority ?metrics () =
  fst (fix_with_stats ?loss ?priority ?metrics ())

let eager ?compact ?loss ?priority ?metrics () =
  fst (eager_with_stats ?compact ?loss ?priority ?metrics ())
