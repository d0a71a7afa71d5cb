(* The serve workloads.

   The program under test is a [reqsched serve] process in manual-tick
   mode.  This process is its only client: one unix-socket connection,
   lock-step rounds (submit round r, tick, wait for the [round r] ack),
   so exactly one round is outstanding — a closed loop at round
   granularity.  Load generation, OPT and the checks stay in this
   process, outside the server's domains and its RSS.

   The traced run replays the same bytes in-process through
   [Serve.Shard]s built with the server's layout, timing each call into
   [Protocol], [Lineio], [Shard], the strategy and [Chan]. *)

module P = Serve.Protocol

type cfg = {
  name : string;
  n : int;
  d : int;
  shards : int;
  strategy : string;
  load : float;
  batch : int; (* requests per wire line; 1 = one [req] line each *)
  cycle : int; (* rounds in the base instance *)
  rate : float; (* rounds per second of --seconds *)
}

let serve_wire =
  {
    name = "serve-wire";
    n = 64;
    d = 4;
    shards = 4;
    strategy = "greedy_2choice";
    load = 6.0;
    batch = 1;
    cycle = 512;
    rate = 330.0;
  }

let serve_solve =
  {
    name = "serve-solve";
    n = 256;
    d = 8;
    shards = 1;
    strategy = "fix";
    load = 1.1;
    batch = 64;
    cycle = 512;
    rate = 55.0;
  }

(* The server's defaults, mirrored by the replay. *)
let queue_capacity = 1024
let outbox_capacity = 4096

let params cfg =
  Printf.sprintf
    "n=%d d=%d shards=%d domains=1 strategy=%s load=%g uniform batch=%d \
     cycle=%d tick=manual rounds/s=%g"
    cfg.n cfg.d cfg.shards cfg.strategy cfg.load cfg.batch cfg.cycle cfg.rate

let factory cfg : Sched.Strategy.factory =
  match cfg.strategy with
  | "fix" -> Strategies.Global.fix ()
  | "greedy_2choice" -> Strategies.Twochoice.least_loaded ()
  | s -> invalid_arg ("unknown strategy " ^ s)

let base_instance cfg ~seed =
  Adversary.Random_workload.make ~rng:(Prelude.Rng.create ~seed) ~n:cfg.n
    ~d:cfg.d ~rounds:cfg.cycle ~load:cfg.load ()

(* Round r's wire bytes: its submissions, [batch] to a line (a lone
   request goes out as a plain [req] line), then [tick]. *)
let render_round buf cfg stream r =
  let first = Stream.first_tag stream r and k = Stream.count stream r in
  let req tag =
    {
      P.tag;
      alternatives = Stream.alternatives stream tag;
      deadline = Stream.deadline stream tag;
    }
  in
  let line msg =
    Buffer.add_string buf (P.render_client msg);
    Buffer.add_char buf '\n'
  in
  let i = ref 0 in
  while !i < k do
    let len = min cfg.batch (k - !i) in
    if len = 1 then line (P.Submit (req (first + !i)))
    else line (P.Batch (List.init len (fun j -> req (first + !i + j))));
    i := !i + len
  done;
  line P.Tick

(* ------------------------------------------------------------------ *)
(* the server process *)

type server = { pid : int; metrics_path : string }

let live_servers : int list ref = ref []

(* Whatever happens to this process, no server outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

let spawn ~exe ~dir cfg ~sock ~metrics_path =
  let log =
    Unix.openfile
      (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      exe; "serve"; "--listen"; "unix:" ^ sock; "--manual"; "--shards";
      string_of_int cfg.shards; "--domains"; "1"; "-n"; string_of_int cfg.n;
      "-d"; string_of_int cfg.d; "-s"; cfg.strategy; "--metrics"; "json";
      "--metrics-out"; metrics_path;
    |]
  in
  let pid = Unix.create_process exe args stdin_r log log in
  List.iter Unix.close [ stdin_r; stdin_w; log ];
  live_servers := pid :: !live_servers;
  { pid; metrics_path }

(* SIGTERM (graceful drain), then wait; SIGKILL after 10 s. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now_ns () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Clock.now_ns () > deadline ->
      (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
      snd (Unix.waitpid [] srv.pid)
    | 0, _ ->
      Unix.sleepf 0.001;
      wait ()
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live_servers := List.filter (( <> ) srv.pid) !live_servers;
  status

type conn = { fd : Unix.file_descr; inq : Buffer.t; scratch : Bytes.t }

let connect sock =
  let deadline = Clock.now_ns () + 10_000_000_000 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Clock.now_ns () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.0005;
      go ()
  in
  { fd = go (); inq = Buffer.create 65536; scratch = Bytes.create 65536 }

(* Complete lines read from the server; [None] after [timeout] seconds
   of silence. *)
let read_lines ?(timeout = 10.0) c =
  match Unix.select [ c.fd ] [] [] timeout with
  | [], _, _ -> None
  | _ ->
    (match Unix.read c.fd c.scratch 0 (Bytes.length c.scratch) with
     | 0 -> failwith "server closed the connection"
     | n ->
       Buffer.add_subbytes c.inq c.scratch 0 n;
       Some (Serve.Lineio.extract_lines c.inq))

let rec read_lines_exn c =
  match read_lines c with
  | Some [] -> read_lines_exn c
  | Some lines -> lines
  | None -> failwith "server silent for 10 s"

let greet c =
  Serve.Lineio.write_all c.fd
    (P.render_client (P.Hello { client = "perfbench" }) ^ "\n");
  match read_lines_exn c with
  | line :: _ ->
    (match P.parse_server line with
     | Ok (P.Welcome _) -> ()
     | _ -> failwith ("expected welcome, got " ^ line))
  | [] -> assert false

(* Set up [reps] times — generate the base instance, start the server,
   connect, hello/welcome — and keep the last.  Returns the set-up
   times in seconds at reference host speed ({!Calib}). *)
let setup ~exe ~dir cfg ~seed ~reps =
  let times = Array.make reps 0.0 in
  let rec go i =
    let sock = Filename.concat dir (Printf.sprintf "rs-%d-%d.sock" (Unix.getpid ()) i) in
    let metrics_path =
      Filename.concat dir
        (Printf.sprintf "server-%d-%d.json" (Unix.getpid ()) i)
    in
    let host = Calib.factor_now () in
    let t0 = Clock.now_ns () in
    let base = base_instance cfg ~seed in
    let srv = spawn ~exe ~dir cfg ~sock ~metrics_path in
    let c = connect sock in
    greet c;
    times.(i) <- Clock.s (Clock.now_ns () - t0) *. host;
    if i = reps - 1 then (base, srv, c)
    else begin
      Unix.close c.fd;
      ignore (stop srv);
      (try Sys.remove metrics_path with Sys_error _ -> ());
      go (i + 1)
    end
  in
  let kept = go 0 in
  (times, kept)

(* ------------------------------------------------------------------ *)
(* the measured phase *)

(* Submit [rounds] rounds, then [d] empty ones so every window closes. *)
let run_live cfg c stream ~rounds =
  let ph = Phase.create () in
  let buf = Buffer.create 65536 in
  let r = ref 0 and acked = ref false in
  let on_line at line =
    let terminal tag kind round res =
      Phase.terminal ph ~at ~tag ~kind ~round ~res
    in
    match P.parse_server line with
    | Ok (P.Scheduled { tag; round; resource }) ->
      terminal tag Decisions.sched round resource
    | Ok (P.Expired { tag }) -> terminal tag Decisions.expired 0 0
    | Ok (P.Rejected { tag; _ }) -> terminal tag Decisions.rejected 0 0
    | Ok (P.Round { round }) ->
      if round <> !r then
        failwith (Printf.sprintf "ack for round %d, expected %d" round !r);
      acked := true
    | Ok (P.Error { message }) -> failwith ("server error: " ^ message)
    | Ok (P.Welcome _) -> failwith "unexpected welcome"
    | Error m -> failwith ("bad server line: " ^ m)
  in
  Gc.compact ();
  let submitting = ref true and drain = ref cfg.d in
  while !submitting || !drain > 0 do
    ignore (Stream.add_round stream ~submit:!submitting);
    if !submitting then ph.submit_rounds <- ph.submit_rounds + 1;
    Phase.extend ph stream;
    Buffer.clear buf;
    render_round buf cfg stream !r;
    let payload = Buffer.contents buf in
    let t0 = Clock.now_ns () in
    Serve.Lineio.write_all c.fd payload;
    acked := false;
    while not !acked do
      let lines = read_lines_exn c in
      let at = Clock.now_ns () in
      List.iter (on_line at) lines
    done;
    Phase.end_round ph ~t0 ~t1:(Clock.now_ns ());
    incr r;
    if not !submitting then decr drain
    else if !r >= rounds then submitting := false
  done;
  (* terminals the server routed after the final ack *)
  let give_up = Clock.now_ns () + 10_000_000_000 in
  while
    ph.dec.Decisions.terminals < Stream.size stream
    && Clock.now_ns () < give_up
  do
    match read_lines ~timeout:0.1 c with
    | Some lines ->
      let at = Clock.now_ns () in
      List.iter (on_line at) lines
    | None -> ()
  done;
  Serve.Lineio.write_all c.fd (P.render_client P.Bye ^ "\n");
  Unix.close c.fd;
  ph

(* ------------------------------------------------------------------ *)
(* the in-process replay *)

(* Feed [s] to a framing buffer in [chunk]-byte reads, as a socket
   reader would, collecting the complete lines. *)
let frame q ~chunk s =
  let acc = ref [] and off = ref 0 in
  let len = String.length s in
  while !off < len do
    let n = min chunk (len - !off) in
    Buffer.add_substring q s !off n;
    off := !off + n;
    acc := List.rev_append (Serve.Lineio.extract_lines q) !acc
  done;
  List.rev !acc

(* Wrap a strategy so each step is a child span of the shard step. *)
let traced_factory tr (f : Sched.Strategy.factory) : Sched.Strategy.factory =
 fun ~n ~d ->
  let s = f ~n ~d in
  {
    s with
    Sched.Strategy.step =
      (fun ~round ~arrivals ->
         let out = ref [] in
         Trace.span tr "strategy.step" ~round (fun () ->
             out := s.Sched.Strategy.step ~round ~arrivals;
             Array.length arrivals);
         !out);
  }

let wire_stages =
  [
    "protocol.render_client"; "lineio.frame"; "protocol.parse_client";
    "shard.admit"; "shard.step"; "strategy.step"; "chan.drain";
    "protocol.render_server"; "lineio.frame_reply"; "protocol.parse_server";
  ]

(* Replay the live run's rounds through shards laid out as
   [Server.start] lays them out.  Returns the decisions and per-round
   times. *)
let replay cfg stream ~tr =
  let shards_n = max 1 (min cfg.shards cfg.n) in
  let stride = (cfg.n + shards_n - 1) / shards_n in
  let shards_n = (cfg.n + stride - 1) / stride in
  let dummy = (-1, P.Error { message = "" }) in
  let outboxes =
    Array.init shards_n (fun _ ->
        Serve.Chan.create_spsc ~capacity:outbox_capacity ~dummy)
  in
  let strategy =
    match tr with
    | None -> factory cfg
    | Some t -> traced_factory t (factory cfg)
  in
  let shards =
    Array.init shards_n (fun i ->
        Serve.Shard.create ~index:i ~lo:(i * stride)
          ~hi:(min cfg.n ((i + 1) * stride))
          ~d:cfg.d ~queue_capacity ~strategy ~outbox:outboxes.(i) ())
  in
  let dec = Decisions.create () in
  Decisions.ensure dec (Stream.size stream);
  let reject tag =
    ignore (Decisions.record dec ~tag ~kind:Decisions.rejected ~round:0 ~res:0)
  in
  let task (r : P.request) =
    { Serve.Shard.conn = 1; tag = r.tag; alternatives = r.alternatives;
      deadline = r.deadline }
  in
  let shard_of (r : P.request) = List.hd r.alternatives / stride in
  let admit = function
    | P.Submit r ->
      if not (Serve.Shard.try_admit shards.(shard_of r) (task r)) then
        reject r.tag
    | P.Batch reqs ->
      let groups = Array.make shards_n [] in
      List.iter
        (fun r -> groups.(shard_of r) <- task r :: groups.(shard_of r))
        reqs;
      Array.iteri
        (fun i g ->
           if g <> [] then begin
             let tasks = Array.of_list (List.rev g) in
             let len = Array.length tasks in
             let ok = Serve.Shard.try_admit_many shards.(i) tasks ~off:0 ~len in
             for k = ok to len - 1 do
               reject tasks.(k).Serve.Shard.tag
             done
           end)
        groups
    | P.Tick | P.Hello _ | P.Bye -> ()
  in
  let on_reply r = function
    | P.Scheduled { tag; round; resource } ->
      ignore (Decisions.record dec ~tag ~kind:Decisions.sched ~round ~res:resource)
    | P.Expired { tag } ->
      ignore (Decisions.record dec ~tag ~kind:Decisions.expired ~round:0 ~res:0)
    | P.Rejected { tag; _ } -> reject tag
    | P.Round { round } ->
      if round <> r then failwith "replay: round ack out of order"
    | P.Welcome _ | P.Error _ -> failwith "replay: unexpected server message"
  in
  let buf = Buffer.create 65536 and inq = Buffer.create 8192 in
  let outq = Buffer.create 65536 and cinq = Buffer.create 65536 in
  let resp = ref [||] in
  let rounds = Stream.rounds stream in
  let round_ns = Array.make rounds 0.0 in
  Gc.compact ();
  for r = 0 to rounds - 1 do
    let k = Stream.count stream r in
    let stage name f = Trace.stage tr name ~round:r f in
    let body () =
      let payload = ref "" and lines = ref [] and msgs = ref [] in
      stage "protocol.render_client" (fun () ->
          Buffer.clear buf;
          render_round buf cfg stream r;
          payload := Buffer.contents buf;
          k);
      stage "lineio.frame" (fun () ->
          lines := frame inq ~chunk:4096 !payload;
          k);
      stage "protocol.parse_client" (fun () ->
          msgs :=
            List.map
              (fun l ->
                 match P.parse_client l with
                 | Ok m -> m
                 | Error e -> failwith ("replay: " ^ e))
              !lines;
          k);
      stage "shard.admit" (fun () ->
          List.iter admit !msgs;
          k);
      Array.iter
        (fun sh ->
           stage "shard.step" (fun () ->
               Serve.Shard.step_once sh;
               0))
        shards;
      let replies = ref [] and nrep = ref 0 in
      stage "chan.drain" (fun () ->
          Array.iter
            (fun ob ->
               let c = Serve.Chan.drain_into ob resp in
               for i = 0 to c - 1 do
                 replies := snd !resp.(i) :: !replies
               done;
               nrep := !nrep + c)
            outboxes;
          !nrep);
      stage "protocol.render_server" (fun () ->
          Buffer.clear outq;
          List.iter
            (fun m ->
               Buffer.add_string outq (P.render_server m);
               Buffer.add_char outq '\n')
            (List.rev !replies);
          Buffer.add_string outq (P.render_server (P.Round { round = r }));
          Buffer.add_char outq '\n';
          !nrep);
      let rlines = ref [] in
      stage "lineio.frame_reply" (fun () ->
          rlines := frame cinq ~chunk:65536 (Buffer.contents outq);
          !nrep);
      stage "protocol.parse_server" (fun () ->
          List.iter
            (fun l ->
               match P.parse_server l with
               | Ok m -> on_reply r m
               | Error e -> failwith ("replay: " ^ e))
            !rlines;
          !nrep)
    in
    let t0 = Clock.now_ns () in
    (match tr with
     | None -> body ()
     | Some t ->
       Trace.span t "round" ~round:r (fun () ->
           body ();
           k));
    round_ns.(r) <- float_of_int (Clock.now_ns () - t0)
  done;
  (dec, round_ns)

(* ------------------------------------------------------------------ *)
(* one run *)

let read_dump path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text ->
    (try Sys.remove path with Sys_error _ -> ());
    Obs.Export.of_json text
  | exception Sys_error _ -> []

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter v) -> float_of_int v
  | _ -> 0.0

let hist_mean snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Histogram s) when Prelude.Stats.count s > 0 ->
    Prelude.Stats.mean s
  | _ -> 0.0

(* Per-request gc words are reported for these stages; [shard.step]
   includes its strategy child. *)
let gc_stages =
  List.filter (fun s -> s <> "strategy.step") wire_stages

let layer_metrics cfg stream ~lo ~hi ~live_p50 ~untraced ~snap =
  let tr = Trace.create () in
  let tdec, tns = replay cfg stream ~tr:(Some tr) in
  let reqs =
    float_of_int (Stream.first_tag stream hi - Stream.first_tag stream lo)
  in
  let per_item name = Trace.ns_per_item tr name ~lo ~hi in
  let words name =
    let _, _, w = Trace.totals tr name ~lo ~hi in
    Summary.ratio (float_of_int w) reqs
  in
  let med names = Trace.median_per_round tr names ~lo ~hi in
  let p50 ns = Summary.median (Array.sub ns lo (hi - lo)) in
  let model_ms = med wire_stages /. 1e6 in
  let ticks = float_of_int (Stream.rounds stream) in
  let searches = counter snap "strategy.augment_searches" in
  let layers =
    [
      ("protocol.render_client_ns", per_item "protocol.render_client");
      ("lineio.frame_ns", per_item "lineio.frame");
      ("protocol.parse_client_ns", per_item "protocol.parse_client");
      ("shard.admit_ns", per_item "shard.admit");
      ("shard.step_self_us", med [ "shard.step" ] /. 1e3);
      ("strategy.step_us", med [ "strategy.step" ] /. 1e3);
      ("chan.drain_ns", per_item "chan.drain");
      ("protocol.render_server_ns", per_item "protocol.render_server");
      ("lineio.frame_reply_ns", per_item "lineio.frame_reply");
      ("protocol.parse_server_ns", per_item "protocol.parse_server");
      ( "gc.minor_words_per_req",
        List.fold_left (fun acc s -> acc +. words s) 0.0 gc_stages );
      ("ledger.model_ms_per_round", model_ms);
      ("ledger.unaccounted_frac", 1.0 -. Summary.ratio model_ms live_p50);
      ("trace.overhead_frac", Summary.ratio (p50 tns) (p50 untraced) -. 1.0);
      ( "serve.truncated_per_admitted",
        Summary.ratio
          (counter snap "serve.truncated_alternatives")
          (counter snap "serve.admitted") );
      ("serve.outbox_stalls", counter snap "serve.outbox_stalls");
      ("serve.rejected_overload", counter snap "serve.rejected.overload");
      ("serve.queue_depth_mean", hist_mean snap "serve.queue_depth");
      ("serve.tick_us_mean", hist_mean snap "serve.tick_us");
      ("strategy.augment_searches_per_round", Summary.ratio searches ticks);
      ( "strategy.warm_hit_frac",
        Summary.ratio (counter snap "strategy.warm_hits") searches );
    ]
    @ List.map (fun s -> ("gc.minor_words_per_req." ^ s, words s)) gc_stages
  in
  (tr, tdec, layers)

let run ~exe ~dir cfg ~seed ~seconds ~traced =
  (* the server will run on the other core: probe both ({!Calib}) *)
  Calib.start_helper ();
  let setup_s, (base, srv, c) =
    Summary.timed "setup" (fun () -> setup ~exe ~dir cfg ~seed ~reps:7)
  in
  let stream = Stream.create base ~cycle:cfg.cycle in
  let rounds = max 8 (int_of_float (Float.ceil (seconds *. cfg.rate))) in
  let live =
    Summary.timed "measure" (fun () -> run_live cfg c stream ~rounds)
  in
  let rss = Host.peak_rss_mb (string_of_int srv.pid) in
  let status = stop srv in
  let snap = read_dump srv.metrics_path in
  (* everything below runs after the server has exited *)
  Decisions.note "server drained and exited 0"
    (if status = Unix.WEXITED 0 then 0 else 1);
  Decisions.note "server counted no client errors"
    (int_of_float (counter snap "serve.client_errors"));
  let dec = live.Phase.dec in
  Decisions.check_stream dec stream;
  let rejected = Decisions.count_kind dec Decisions.rejected in
  Decisions.note "no request rejected" rejected;
  let lo, hi = Phase.window live in
  let inst = Stream.instance stream in
  (* Hopcroft-Karp: exact like [Opt.value], and several times faster
     on these uniform streams, whose requests rarely coincide *)
  let opt = Summary.timed "opt" (fun () -> Offline.Opt.expanded inst) in
  let live_log = Decisions.render dec in
  let same label other =
    let n, detail = Decisions.diff_logs live_log (Decisions.render other) in
    Decisions.note label ~detail n
  in
  (* one shard truncates no alternative, so the server must decide
     exactly as the offline engine; several shards are checked against
     their in-process replay instead *)
  if cfg.shards = 1 then
    same ("(d) decisions equal Sched.Engine.run of " ^ cfg.strategy)
      (Summary.timed "engine-run" (fun () ->
           Decisions.of_outcome (Sched.Engine.run inst (factory cfg))));
  let e2e = Phase.end_to_end live stream ~setup_s ~opt ~rss_mb:rss in
  let replay_needed = cfg.shards > 1 || traced in
  let untraced =
    if not replay_needed then [||]
    else begin
      let rdec, rns =
        Summary.timed "replay" (fun () -> replay cfg stream ~tr:None)
      in
      same "(c) decisions byte-identical to the in-process Shard replay" rdec;
      rns
    end
  in
  let trace, layers =
    if not traced then (None, [])
    else begin
      let tr, tdec, layers =
        Summary.timed "traced-replay" @@ fun () ->
        layer_metrics cfg stream ~lo ~hi
          ~live_p50:(Phase.p50_ms live) ~untraced ~snap
      in
      same "traced replay decisions equal the live decisions" tdec;
      (Some tr, layers)
    end
  in
  {
    Summary.e2e;
    layers;
    trace;
    attempted = Stream.size stream;
    rejected;
    params = params cfg;
  }
