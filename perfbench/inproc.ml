(* The in-process workloads: no sockets, the program's libraries called
   directly from this process.

   score-balance is the experiment pipeline's unit of work: a live
   engine running [balance], the streaming offline optimum and the
   streaming SLO scores, round by round over zoo [mix].

   cluster-eager is the cluster tier: a [Cluster.Session] running
   [local_eager] over three nodes on zoo [vod], whose replica pairs
   cross nodes, checked against the [Localstrat.Local.eager]
   simulator. *)

module Live = Sched.Engine.Live
module Session = Cluster.Session
module Ivec = Prelude.Ivec

type kind = Score | Cluster_eager

type cfg = {
  name : string;
  kind : kind;
  family : string; (* workload zoo family, at its default load *)
  n : int;
  d : int;
  cycle : int;
  nodes : int;
  rate : float; (* rounds per second of --seconds *)
}

let score_balance =
  { name = "score-balance"; kind = Score; family = "mix"; n = 64; d = 4;
    cycle = 2048; nodes = 1; rate = 220.0 }

let cluster_eager =
  { name = "cluster-eager"; kind = Cluster_eager; family = "vod"; n = 64;
    d = 4; cycle = 2048; nodes = 3; rate = 400.0 }

let load cfg =
  match Workload.Zoo.find cfg.family with
  | Some f -> f.Workload.Zoo.default_load
  | None -> invalid_arg ("unknown zoo family " ^ cfg.family)

let params cfg =
  Printf.sprintf "n=%d d=%d zoo=%s load=%g cycle=%d rounds/s=%g%s" cfg.n cfg.d
    cfg.family (load cfg) cfg.cycle cfg.rate
    (match cfg.kind with
     | Score -> " strategy=balance"
     | Cluster_eager ->
       Printf.sprintf " strategy=local_eager nodes=%d" cfg.nodes)

let base_instance cfg ~seed =
  match
    Workload.Zoo.generate ~name:cfg.family ~n:cfg.n ~d:cfg.d ~rounds:cfg.cycle
      ~load:(load cfg) ~seed
  with
  | Ok inst -> inst
  | Error m -> failwith m

let submit_all stream r submit =
  let first = Stream.first_tag stream r in
  for i = 0 to Stream.count stream r - 1 do
    let tag = first + i in
    match
      submit ~alternatives:(Stream.alternatives stream tag)
        ~deadline:(Stream.deadline stream tag)
    with
    | Ok id when id = tag -> ()
    | Ok id -> failwith (Printf.sprintf "tag %d admitted as id %d" tag id)
    | Error m -> failwith ("submit refused: " ^ m)
  done

(* Each program instance below comes with [round r], which prepares
   round r's inputs and returns the timed part: submit them, step once,
   return the (id, resource) services and the expiries. *)
let score_sys cfg stream ~tr =
  let metrics = Option.map (fun _ -> Obs.Metrics.create ()) tr in
  let factory = Strategies.Global.balance ?metrics () in
  let factory =
    match tr with None -> factory | Some t -> Wire.traced_factory t factory
  in
  let live = Live.create ~n:cfg.n ~d:cfg.d factory in
  let opt = Offline.Opt_stream.create ~n_resources:cfg.n () in
  let slo = Analysis.Slo.create () in
  let round r =
    let arrivals = Stream.round_requests stream r in
    let k = Array.length arrivals in
    let first = Stream.first_tag stream r in
    fun () ->
      let stage name f = Trace.stage tr name ~round:r f in
      stage "live.submit" (fun () ->
          submit_all stream r (Live.submit live);
          k);
      stage "opt_stream.feed" (fun () ->
          ignore (Offline.Opt_stream.feed opt arrivals);
          k);
      let out = ref None in
      stage "live.step" (fun () ->
          out := Some (Live.step live);
          k);
      let o = Option.get !out in
      stage "slo.event" (fun () ->
          for i = 0 to k - 1 do
            Analysis.Slo.on_submit slo ~id:(first + i) ~round:r
              ~deadline:(Stream.deadline stream (first + i))
          done;
          List.iter
            (fun (id, _) -> Analysis.Slo.on_serve slo ~id ~round:r)
            o.Live.served;
          List.iter
            (fun id -> Analysis.Slo.on_expire slo ~id ~round:r)
            o.Live.expired;
          Analysis.Slo.on_round slo;
          k + List.length o.Live.served + List.length o.Live.expired + 1);
      (o.Live.served, o.Live.expired)
  in
  (live, opt, slo, metrics, round)

let no_pending () = 0

let cluster_sys cfg ~tr =
  let session =
    Session.create
      ~strategy:(Session.Local_eager { compact = false })
      ~nodes:cfg.nodes ~n:cfg.n ~d:cfg.d ()
  in
  let round stream r =
    let k = Stream.count stream r in
    fun () ->
      let stage name f = Trace.stage tr name ~round:r f in
      stage "cluster.submit" (fun () ->
          submit_all stream r (fun ~alternatives ~deadline ->
              Session.submit session ~alternatives ~deadline);
          k);
      let out = ref None in
      stage "cluster.step" (fun () ->
          out := Some (Session.step session);
          k);
      let o = Option.get !out in
      (o.Session.served, o.Session.expired)
  in
  (session, round)

(* Drive [round] over [Some n] new rounds (growing the stream, then
   running until every window has closed and [pending ()] is 0), or
   over the stream's existing rounds when [rounds] is [None]. *)
let drive stream ~tr ~rounds ~pending round =
  let ph = Phase.create () in
  let r = ref 0 in
  let submitting = ref (rounds <> None) in
  let more () =
    match rounds with
    | None -> !r < Stream.rounds stream
    | Some _ ->
      !submitting || !r < stream.Stream.horizon || pending () > 0
  in
  Gc.compact ();
  while more () do
    let k =
      if rounds = None then Stream.count stream !r
      else Stream.add_round stream ~submit:!submitting
    in
    if !submitting then ph.submit_rounds <- ph.submit_rounds + 1;
    Phase.extend ph stream;
    let go = round !r in
    let t0 = Clock.now_ns () in
    let served, expired =
      match tr with
      | None -> go ()
      | Some t ->
        let out = ref ([], []) in
        Trace.span t "round" ~round:!r (fun () ->
            out := go ();
            k);
        !out
    in
    let t1 = Clock.now_ns () in
    List.iter
      (fun (tag, res) ->
         Phase.terminal ph ~at:t1 ~tag ~kind:Decisions.sched ~round:!r ~res)
      served;
    List.iter
      (fun tag ->
         Phase.terminal ph ~at:t1 ~tag ~kind:Decisions.expired ~round:0 ~res:0)
      expired;
    Phase.end_round ph ~t0 ~t1;
    incr r;
    (* stop after a round that submitted something, so the realised
       instance's horizon covers every round run *)
    if !submitting && !r >= Option.get rounds && k > 0 then
      submitting := false
  done;
  if rounds = None then ph.submit_rounds <- Stream.rounds stream;
  ph

(* The realised run as an offline outcome, for the batch SLO oracle. *)
let outcome_of inst (dec : Decisions.t) =
  let served_at =
    Array.init (Decisions.length dec) (fun tag ->
        if Decisions.kind dec tag = Decisions.sched then
          Some (Ivec.get dec.res tag, Ivec.get dec.round tag)
        else None)
  in
  let per_round_served = Array.make inst.Sched.Instance.horizon 0 in
  Array.iter
    (function
      | Some (_, round) ->
        per_round_served.(round) <- per_round_served.(round) + 1
      | None -> ())
    served_at;
  {
    Sched.Outcome.instance = inst;
    strategy_name = "A_balance";
    served_at;
    served = Decisions.count_kind dec Decisions.sched;
    wasted = 0;
    per_round_served;
  }

let run cfg ~seed ~seconds ~traced =
  (* set-up: base instance, stream, program state; seven times, each
     at reference host speed *)
  let reps = 7 in
  let setup_s = Array.make reps 0.0 in
  let build () =
    let base = base_instance cfg ~seed in
    let stream = Stream.create base ~cycle:cfg.cycle in
    match cfg.kind with
    | Score ->
      let live, opt, slo, _, round = score_sys cfg stream ~tr:None in
      (stream, round, (fun () -> Live.pending live), `Score (live, opt, slo))
    | Cluster_eager ->
      let session, round = cluster_sys cfg ~tr:None in
      ( stream,
        round stream,
        (fun () -> Session.pending session),
        `Cluster session )
  in
  let kept = ref None in
  for i = 0 to reps - 1 do
    let host = Calib.factor_now () in
    let t0 = Clock.now_ns () in
    kept := Some (build ());
    setup_s.(i) <- Clock.s (Clock.now_ns () - t0) *. host
  done;
  let stream, round, pending, state = Option.get !kept in
  let p =
    Summary.timed "measure" (fun () ->
        drive stream ~tr:None ~pending round
          ~rounds:
            (Some (max 8 (int_of_float (Float.ceil (seconds *. cfg.rate))))))
  in
  let rss = Host.peak_rss_mb "self" in
  (* everything below is outside the measured phase *)
  let dec = p.Phase.dec in
  Decisions.check_stream dec stream;
  let inst = Stream.instance stream in
  let opt = Summary.timed "opt" (fun () -> Offline.Opt.expanded inst) in
  let lo, hi = Phase.window p in
  let e2e = Phase.end_to_end p stream ~setup_s ~opt ~rss_mb:rss in
  let same label other =
    let n, detail =
      Decisions.diff_logs (Decisions.render dec) (Decisions.render other)
    in
    Decisions.note label ~detail n
  in
  let local_us = ref [||] in
  (match state with
   | `Score (live, opt_stream, slo) ->
     Decisions.note "live engine has nothing pending" (Live.pending live);
     Decisions.note "(e) streamed SLO scores equal Analysis.Slo.of_outcome"
       (if compare (Analysis.Slo.scores slo)
             (Analysis.Slo.of_outcome (outcome_of inst dec)) = 0
        then 0 else 1);
     Decisions.note "streamed OPT equals Offline.Opt.expanded"
       (if Offline.Opt_stream.opt opt_stream = opt then 0 else 1)
   | `Cluster session ->
     (* the simulator reference, fed the same submissions *)
     let live = Live.create ~n:cfg.n ~d:cfg.d (Localstrat.Local.eager ()) in
     let steps = Array.make (Stream.rounds stream) 0.0 in
     let reference r () =
       submit_all stream r (Live.submit live);
       let t0 = Clock.now_ns () in
       let o = Live.step live in
       steps.(r) <- float_of_int (Clock.now_ns () - t0);
       (o.Live.served, o.Live.expired)
     in
     let refp =
       Summary.timed "reference" (fun () ->
           drive stream ~tr:None ~rounds:None ~pending:no_pending reference)
     in
     local_us := steps;
     let served_set (d : Decisions.t) =
       List.init (Decisions.length d) Fun.id
       |> List.filter (fun tag -> Decisions.kind d tag = Decisions.sched)
     in
     Decisions.note
       "(f) served set equals Localstrat.Local.eager's"
       (if served_set dec = served_set refp.Phase.dec then 0 else 1);
     let st = Session.stats session in
     Decisions.note "(f) serve_conflicts = 0" st.Session.serve_conflicts;
     Decisions.note
       (Printf.sprintf "(f) comm_rounds_max %d <= 9 (Thm 3.8)"
          st.Session.comm_rounds_max)
       (if st.Session.comm_rounds_max <= 9 then 0 else 1));
  let trace, layers =
    if not traced then (None, [])
    else begin
      let tr = Trace.create () in
      let per_item name = Trace.ns_per_item tr name ~lo ~hi in
      let med names = Trace.median_per_round tr names ~lo ~hi in
      let replay round =
        drive stream ~tr:(Some tr) ~rounds:None ~pending:no_pending round
      in
      let stages, tp, layers =
        match cfg.kind with
        | Score ->
          let _, _, _, metrics, round = score_sys cfg stream ~tr:(Some tr) in
          let tp = replay round in
          let counter name =
            float_of_int (Obs.Metrics.counter (Option.get metrics) name)
          in
          let searches = counter "strategy.augment_searches" in
          ( [ "live.submit"; "opt_stream.feed"; "live.step"; "strategy.step";
              "slo.event" ],
            tp,
            [
              ("live.submit_ns", per_item "live.submit");
              ("live.step_self_us", med [ "live.step" ] /. 1e3);
              ("strategy.step_us", med [ "strategy.step" ] /. 1e3);
              ("opt_stream.feed_us", med [ "opt_stream.feed" ] /. 1e3);
              ("slo.event_ns", per_item "slo.event");
              ( "strategy.augment_searches_per_round",
                searches /. float_of_int (Stream.rounds stream) );
              ( "strategy.warm_hit_frac",
                Summary.ratio (counter "strategy.warm_hits") searches );
            ] )
        | Cluster_eager ->
          let session, round = cluster_sys cfg ~tr:(Some tr) in
          let tp = replay (round stream) in
          let st = Session.stats session in
          let per_round v =
            Summary.ratio (float_of_int v)
              (float_of_int st.Session.scheduling_rounds)
          in
          ( [ "cluster.submit"; "cluster.step" ],
            tp,
            [
              ("cluster.submit_ns", per_item "cluster.submit");
              ("cluster.step_us", med [ "cluster.step" ] /. 1e3);
              ("cluster.msgs_per_round", per_round st.Session.messages);
              ( "cluster.comm_rounds_per_round",
                per_round st.Session.comm_rounds_total );
              ( "cluster.bounce_frac",
                Summary.ratio
                  (float_of_int st.Session.bounced)
                  (float_of_int st.Session.messages) );
              ( "local.step_us",
                Summary.median (Array.sub !local_us lo (hi - lo)) /. 1e3 );
            ] )
      in
      same "traced run decisions equal the untraced run's" tp.Phase.dec;
      let model_ms = med stages /. 1e6 and untraced = Phase.p50_ms p in
      ( Some tr,
        ("ledger.model_ms_per_round", model_ms)
        :: ("ledger.unaccounted_frac", 1.0 -. Summary.ratio model_ms untraced)
        :: ( "trace.overhead_frac",
             Summary.ratio (Phase.p50_ms tp) untraced -. 1.0 )
        :: layers )
    end
  in
  {
    Summary.e2e;
    layers;
    trace;
    attempted = Stream.size stream;
    rejected = 0;
    params = params cfg;
  }
