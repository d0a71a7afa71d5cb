(* The reqsched benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --server EXE
     bench.exe --self-test

   One run generates workload W's inputs from seed N, measures for S
   seconds, checks every output, and prints a human-readable log
   followed by one JSON line: the end-to-end metrics (--trace 0) or
   the per-layer metrics of a separate traced run (--trace 1).  A
   failed check fails the run (exit 1).  perfbench/run.py builds the
   program and this executable from source and calls it. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "1/s");
    ("round_ms_p50", "ms");
    ("latency_ms_p50", "ms");
    ("opt_ratio", "ratio");
    ("violation_rate", "frac");
    ("rss_peak_mb", "MiB");
  ]

let per_layer =
  [
    ("protocol.render_client_ns", "ns");
    ("lineio.frame_ns", "ns");
    ("protocol.parse_client_ns", "ns");
    ("shard.admit_ns", "ns");
    ("shard.step_self_us", "us");
    ("strategy.step_us", "us");
    ("chan.drain_ns", "ns");
    ("protocol.render_server_ns", "ns");
    ("lineio.frame_reply_ns", "ns");
    ("protocol.parse_server_ns", "ns");
    ("gc.minor_words_per_req", "words");
  ]
  @ List.map
    (fun s -> ("gc.minor_words_per_req." ^ s, "words"))
    Wire.gc_stages
  @ [
    ("ledger.model_ms_per_round", "ms");
    ("ledger.unaccounted_frac", "frac");
    ("trace.overhead_frac", "frac");
    ("serve.truncated_per_admitted", "ratio");
    ("serve.outbox_stalls", "count");
    ("serve.rejected_overload", "count");
    ("serve.queue_depth_mean", "count");
    ("serve.tick_us_mean", "us");
    ("strategy.augment_searches_per_round", "count");
    ("strategy.warm_hit_frac", "frac");
    ("live.submit_ns", "ns");
    ("live.step_self_us", "us");
    ("opt_stream.feed_us", "us");
    ("slo.event_ns", "ns");
    ("cluster.submit_ns", "ns");
    ("cluster.step_us", "us");
    ("cluster.msgs_per_round", "count");
    ("cluster.comm_rounds_per_round", "count");
    ("cluster.bounce_frac", "frac");
    ("local.step_us", "us");
  ]

let workloads = [ "serve-wire"; "serve-solve"; "score-balance"; "cluster-eager" ]

(* ------------------------------------------------------------------ *)
(* self-test: the checks must be live *)

(* Check (b) must pass on an engine's own decisions and fail on each
   kind of corruption. *)
let self_test () =
  let base =
    Sched.Instance.build ~n_resources:4 ~d:2
      [
        Sched.Request.make ~arrival:0 ~alternatives:[ 0; 1 ] ~deadline:2;
        Sched.Request.make ~arrival:0 ~alternatives:[ 0; 1 ] ~deadline:2;
        Sched.Request.make ~arrival:0 ~alternatives:[ 1; 2 ] ~deadline:1;
        Sched.Request.make ~arrival:1 ~alternatives:[ 2; 3 ] ~deadline:1;
      ]
  in
  let stream = Stream.create base ~cycle:2 in
  for _ = 1 to 4 do
    ignore (Stream.add_round stream ~submit:true)
  done;
  let inst = Stream.instance stream in
  let fresh () =
    Decisions.of_outcome (Sched.Engine.run inst (Strategies.Global.fix ()))
  in
  let errors dec =
    fst
      (Decisions.valid dec ~alternatives:(Stream.alternatives stream)
         ~arrival:(Stream.arrival stream) ~deadline:(Stream.deadline stream))
  in
  let first_sched dec =
    let rec go tag =
      if Decisions.kind dec tag = Decisions.sched then tag else go (tag + 1)
    in
    go 0
  in
  let corrupt label f =
    let dec = fresh () in
    f dec;
    let n = errors dec in
    Printf.printf "self-test check (b) on %s: %d error(s) %s\n" label n
      (if n > 0 then "detected" else "MISSED");
    n > 0
  in
  let clean = errors (fresh ()) in
  let terminals, _ = Decisions.one_terminal (fresh ()) in
  Printf.printf "self-test checks (a)+(b) on the engine's own log: %d error(s)\n"
    (clean + terminals);
  let module Ivec = Prelude.Ivec in
  let detected =
    [
      corrupt "a resource outside the alternatives" (fun dec ->
          let t = first_sched dec in
          Ivec.set dec.Decisions.res t 3);
      corrupt "a round outside the window" (fun dec ->
          let t = first_sched dec in
          Ivec.set dec.Decisions.round t (Stream.arrival stream t + 5));
      corrupt "a slot used twice" (fun dec ->
          (* tags 0 and 1 arrive together on the same two resources *)
          Ivec.set dec.Decisions.kind 1 Decisions.sched;
          Ivec.set dec.Decisions.round 1 (Ivec.get dec.Decisions.round 0);
          Ivec.set dec.Decisions.res 1 (Ivec.get dec.Decisions.res 0));
    ]
  in
  let dup = fresh () in
  ignore (Decisions.record dup ~tag:0 ~kind:Decisions.expired ~round:0 ~res:0);
  let dup_errors, _ = Decisions.one_terminal dup in
  Printf.printf "self-test check (a) on a duplicated terminal: %d error(s) %s\n"
    dup_errors
    (if dup_errors > 0 then "detected" else "MISSED");
  if clean + terminals = 0 && dup_errors > 0 && List.for_all Fun.id detected
  then (print_endline "self-test ok"; 0)
  else (print_endline "self-test FAILED"; 1)

(* ------------------------------------------------------------------ *)
(* one run *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 \
     --server EXE [--out DIR] | --self-test";
  exit 2

let run ~workload ~seed ~seconds ~traced ~server ~dir =
  let host = Host.fingerprint () in
  print_endline host;
  let res =
    match workload with
    | "serve-wire" ->
      Wire.run ~exe:server ~dir Wire.serve_wire ~seed ~seconds ~traced
    | "serve-solve" ->
      Wire.run ~exe:server ~dir Wire.serve_solve ~seed ~seconds ~traced
    | "score-balance" -> Inproc.run Inproc.score_balance ~seed ~seconds ~traced
    | "cluster-eager" -> Inproc.run Inproc.cluster_eager ~seed ~seconds ~traced
    | w -> failwith ("unknown workload " ^ w)
  in
  Printf.printf "workload %s seed=%d seconds=%g trace=%d %s\n" workload seed
    seconds (if traced then 1 else 0) res.Summary.params;
  let catalogue, values =
    if traced then (per_layer, res.layers) else (end_to_end, res.e2e)
  in
  let metrics =
    List.map
      (fun (name, unit_) ->
         Summary.metric name unit_
           (Option.value (List.assoc_opt name values) ~default:0.0))
      catalogue
  in
  let not_finite =
    List.filter (fun m -> not (Float.is_finite m.Summary.value)) metrics
  in
  Decisions.note "every metric is a finite number"
    ~detail:(String.concat " " (List.map (fun m -> m.Summary.name) not_finite))
    (List.length not_finite);
  List.iter
    (fun (v : Decisions.verdict) ->
       Printf.printf "check %s: %s%s\n" v.label
         (if v.errors = 0 then "ok" else Printf.sprintf "FAILED (%d)" v.errors)
         (if v.detail = "" || v.errors = 0 then "" else " — " ^ v.detail))
    (List.rev !Decisions.checks);
  let failed =
    List.fold_left (fun acc v -> acc + v.Decisions.errors) 0 !Decisions.checks
  in
  let correct = failed = 0 in
  let attempted = max 1 res.attempted in
  Printf.printf "requests sent=%d succeeded=%d failed=%d rejected=%d error_rate=%g\n"
    res.attempted (max 0 (res.attempted - failed)) failed res.rejected
    (Summary.ratio (float_of_int failed) (float_of_int attempted));
  List.iter
    (fun m ->
       Printf.printf "metric %-44s %.6g %s\n" m.Summary.name m.value m.unit_)
    metrics;
  let stem =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d" workload seed (if traced then 1 else 0))
  in
  Option.iter (fun t -> Trace.write t (stem ^ ".spans.tsv")) res.trace;
  let line =
    Summary.result_line ~correct ~attempted ~failed:(min failed attempted)
      metrics
  in
  Out_channel.with_open_bin (stem ^ ".json") (fun oc ->
      Printf.fprintf oc "{\"host\": %S, \"workload\": %S, \"params\": %S, \
                         \"result\": %s}\n"
        host workload res.params line);
  print_endline line;
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and server = ref "" and dir = ref "perfbench/_out" in
  let self = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--server" :: v :: rest -> server := v; parse rest
    | "--out" :: v :: rest -> dir := v; parse rest
    | "--self-test" :: rest -> self := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !self then exit (self_test ());
  if (not (List.mem !workload workloads)) || !server = ""
     || not (List.mem !trace [ 0; 1 ]) then usage ();
  (try Sys.mkdir !dir 0o755 with Sys_error _ -> ());
  let code =
    try
      run ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~traced:(!trace = 1) ~server:!server ~dir:!dir
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" !workload
        (Printexc.to_string e);
      1
  in
  exit code
