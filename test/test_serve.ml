(* Tests for the live scheduling service: wire protocol round-trips,
   the SPSC ring, a shard's reply routing, and end-to-end
   server/client runs on loopback unix sockets (exactly-one-terminal,
   byte-identical replay, explicit overload rejection, client-failure
   isolation, graceful drain). *)

module Protocol = Serve.Protocol
module Chan = Serve.Chan
module Server = Serve.Server
module Client = Serve.Client
module Instance = Sched.Instance
module Request = Sched.Request

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* protocol round-trips *)

(* a client/server name: one non-empty space-free token *)
let name_gen =
  QCheck.Gen.(
    string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

(* rest-of-line free text: printable, no newlines (spaces allowed) *)
let detail_gen =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; return ' ' ]) (int_range 0 12))

let request_gen =
  QCheck.Gen.(
    int_range 0 10_000 >>= fun tag ->
    list_size (int_range 1 4) (int_range 0 99) >>= fun alternatives ->
    int_range 1 20 >>= fun deadline ->
    (* the codec rejects duplicate resources *)
    let alternatives = List.sort_uniq compare alternatives in
    return { Protocol.tag; alternatives; deadline })

let client_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun client -> Protocol.Hello { client }) name_gen;
        map (fun r -> Protocol.Submit r) request_gen;
        map
          (fun rs -> Protocol.Batch rs)
          (list_size (int_range 1 6) request_gen);
        return Protocol.Tick;
        return Protocol.Bye;
      ])

let reason_gen =
  QCheck.Gen.(
    oneof
      [
        return Protocol.Overload;
        return Protocol.Draining;
        map (fun d -> Protocol.Invalid d) detail_gen;
      ])

let server_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun server -> Protocol.Welcome { server }) name_gen;
        (int_range 0 9999 >>= fun tag ->
         int_range 0 9999 >>= fun round ->
         int_range 0 99 >>= fun resource ->
         return (Protocol.Scheduled { tag; round; resource }));
        (int_range 0 9999 >>= fun tag ->
         reason_gen >>= fun reason ->
         return (Protocol.Rejected { tag; reason }));
        map (fun tag -> Protocol.Expired { tag }) (int_range 0 9999);
        map (fun round -> Protocol.Round { round }) (int_range 0 9999);
        map (fun message -> Protocol.Error { message }) detail_gen;
      ])

let prop_client_roundtrip =
  qtest "client messages round-trip"
    (QCheck.make client_msg_gen ~print:Protocol.render_client)
    (fun m ->
       let line = Protocol.render_client m in
       (not (String.contains line '\n'))
       && Protocol.parse_client line = Ok m)

let prop_server_roundtrip =
  qtest "server messages round-trip"
    (QCheck.make server_msg_gen ~print:Protocol.render_server)
    (fun m ->
       let line = Protocol.render_server m in
       (not (String.contains line '\n'))
       && Protocol.parse_server line = Ok m)

(* Every malformed line maps to one exact error text.  The integer
   forms [int_of_string] would read ("+1", "0x1", "1_0") are malformed
   rsp/1 fields: the wire grammar is decimal (Sched.Codec). *)
let test_protocol_rejects () =
  let bad_client =
    [
      ("", {|unknown client message ""|});
      ("nope", {|unknown client message "nope"|});
      ("hello", {|unsupported protocol version "" (want rsp/1)|});
      ("hello rsp/1", "expected 'hello rsp/1 <name>'");
      ("hello rsp/9 x", {|unsupported protocol version "rsp/9" (want rsp/1)|});
      ("req", {|expected '<tag> <alts> <deadline>': ""|});
      ("req x 0 1", {|malformed tag "x"|});
      ("req 0 0,0 1", "duplicate resource 0");
      ("req -1 0 1", "negative tag -1");
      ("req 0 0 0", "deadline 0 must be >= 1");
      ("req 0  1", "empty alternative list");
      ("req 1  0 1", {|expected '<tag> <alts> <deadline>': "1  0 1"|});
      ("req 1 0 1 ", {|expected '<tag> <alts> <deadline>': "1 0 1 "|});
      ("req 1 -2 1", "negative resource -2");
      ("req 1 , 1", {|malformed resource ""|});
      ("req 1 0, 1", {|malformed resource ""|});
      ("req 1 0,0,x 1", "duplicate resource 0");
      ("req 1 0 -1", "deadline -1 must be >= 1");
      ("req 1 0 x", {|malformed deadline "x"|});
      ("req +1 0 1", {|malformed tag "+1"|});
      ("req 0x1 0 1", {|malformed tag "0x1"|});
      ("req 1_0 0 1", {|malformed tag "1_0"|});
      ("req 12345678901234567890 0 1",
       {|malformed tag "12345678901234567890"|});
      ("req 1 +1 1", {|malformed resource "+1"|});
      ("req 1 0,0x1 1", {|malformed resource "0x1"|});
      ("req 1 1_0 1", {|malformed resource "1_0"|});
      ("req 1 0,12345678901234567890 1",
       {|malformed resource "12345678901234567890"|});
      ("req 1 0 +1", {|malformed deadline "+1"|});
      ("req 1 0 0x1", {|malformed deadline "0x1"|});
      ("req 1 0 1_0", {|malformed deadline "1_0"|});
      ("req 1 0 12345678901234567890",
       {|malformed deadline "12345678901234567890"|});
      ("batch", "empty batch");
      ("batch ", "empty batch");
      ("batch ;", {|batch entry 0: expected '<tag> <alts> <deadline>': ""|});
      ("batch 0 0 1;",
       {|batch entry 1: expected '<tag> <alts> <deadline>': ""|});
      ("batch 0 0 1;x 1 2", {|batch entry 1: malformed tag "x"|});
      ("batch -1 0 1", "batch entry 0: negative tag -1");
      ("batch 0 0 1;;1 1 1",
       {|batch entry 1: expected '<tag> <alts> <deadline>': ""|});
      ("batch 0 0 1;+1 0 1", {|batch entry 1: malformed tag "+1"|});
    ]
  in
  List.iter
    (fun (line, want) ->
       check
         Alcotest.(result reject string)
         (Printf.sprintf "client line %S" line)
         (Error want)
         (Result.map ignore (Protocol.parse_client line)))
    bad_client;
  let bad_server =
    [
      ("", {|unknown server message ""|});
      ("welcome", {|unsupported protocol version "" (want rsp/1)|});
      ("welcome rsp/0 x",
       {|unsupported protocol version "rsp/0" (want rsp/1)|});
      ("sched 1 2", "expected 'sched <tag> <round> <resource>'");
      ("sched 1 2 3 4", "expected 'sched <tag> <round> <resource>'");
      ("sched 1 -2 3", "negative round -2");
      ("sched 1 2 x", {|malformed resource "x"|});
      ("rej", {|malformed tag ""|});
      ("rej x", {|malformed tag "x"|});
      ("rej 0 nonsense", {|unknown reject reason "nonsense"|});
      ("exp", {|malformed tag ""|});
      ("exp -3", "negative tag -3");
      ("round x", {|malformed round "x"|});
      ("sched +1 0 0", {|malformed tag "+1"|});
      ("exp 0x1", {|malformed tag "0x1"|});
      ("round 1_0", {|malformed round "1_0"|});
      ("exp 12345678901234567890", {|malformed tag "12345678901234567890"|});
    ]
  in
  List.iter
    (fun (line, want) ->
       check
         Alcotest.(result reject string)
         (Printf.sprintf "server line %S" line)
         (Error want)
         (Result.map ignore (Protocol.parse_server line)))
    bad_server;
  (* the decimal range is the int range, both ends *)
  let exp_tag line =
    match Protocol.parse_server line with
    | Ok (Protocol.Expired { tag }) -> Ok tag
    | Ok _ -> Error "not an expiry"
    | Error m -> Error m
  in
  check
    Alcotest.(result int string)
    "max_int tag" (Ok max_int)
    (exp_tag ("exp " ^ string_of_int max_int));
  check
    Alcotest.(result int string)
    "min_int is negative, not malformed"
    (Error (Printf.sprintf "negative tag %d" min_int))
    (exp_tag ("exp " ^ string_of_int min_int));
  check
    Alcotest.(result int string)
    "max_int + 1 overflows"
    (Error {|malformed tag "4611686018427387904"|})
    (exp_tag "exp 4611686018427387904")

let test_terminal_classification () =
  let open Protocol in
  check Alcotest.(option int) "sched" (Some 3)
    (terminal_tag (Scheduled { tag = 3; round = 0; resource = 1 }));
  check Alcotest.(option int) "rej" (Some 4)
    (terminal_tag (Rejected { tag = 4; reason = Overload }));
  check Alcotest.(option int) "exp" (Some 5) (terminal_tag (Expired { tag = 5 }));
  check Alcotest.(option int) "round" None (terminal_tag (Round { round = 9 }));
  check Alcotest.bool "welcome not terminal" false
    (is_terminal (Welcome { server = "x" }))

(* ------------------------------------------------------------------ *)
(* line framing *)

(* Fed in random chunks, with and without the fresh-byte hint, the
   framer yields exactly the non-empty lines of splitting the whole
   input and keeps the trailing partial line buffered. *)
let prop_framing_chunks =
  let input =
    QCheck.Gen.(
      string_size
        ~gen:(frequency [ (5, char_range 'a' 'c'); (1, return ' ');
                          (2, return '\n') ])
        (int_range 0 200))
  in
  let chunks = QCheck.Gen.(list_size (int_range 1 30) (int_range 1 40)) in
  qtest ~count:500 "framing is chunking-invariant"
    (QCheck.make
       QCheck.Gen.(triple input chunks bool)
       ~print:(fun (s, cs, hint) ->
           Printf.sprintf "%S chunks=[%s] fresh=%b" s
             (String.concat ";" (List.map string_of_int cs)) hint))
    (fun (s, cs, hint) ->
       let buf = Buffer.create 8 in
       let got = ref [] and off = ref 0 and cs = ref cs in
       while !off < String.length s do
         let n =
           match !cs with
           | c :: rest ->
             cs := rest @ [ c ];
             min c (String.length s - !off)
           | [] -> String.length s - !off
         in
         Buffer.add_substring buf s !off n;
         off := !off + n;
         let lines =
           if hint then Serve.Lineio.extract_lines ~fresh:n buf
           else Serve.Lineio.extract_lines buf
         in
         got := List.rev_append lines !got
       done;
       let parts = String.split_on_char '\n' s in
       let partial = List.nth parts (List.length parts - 1) in
       let complete =
         List.filteri (fun i _ -> i < List.length parts - 1) parts
       in
       List.rev !got = List.filter (( <> ) "") complete
       && Buffer.contents buf = partial)

(* ------------------------------------------------------------------ *)
(* bounded channel *)

(* everything in the ring, oldest first *)
let drain_list c =
  let buf = ref [||] in
  let n = Chan.drain_into c buf in
  Array.to_list (Array.sub !buf 0 n)

let test_chan_fifo_and_bound () =
  let c = Chan.create_spsc ~capacity:3 ~dummy:0 in
  check Alcotest.bool "push 1" true (Chan.try_push c 1);
  check Alcotest.bool "push 2" true (Chan.try_push c 2);
  check Alcotest.bool "push 3" true (Chan.try_push c 3);
  check Alcotest.bool "push 4 over capacity" false (Chan.try_push c 4);
  check Alcotest.int "length" 3 (Chan.length c);
  check Alcotest.(list int) "fifo drain" [ 1; 2; 3 ] (drain_list c);
  check Alcotest.int "empty after drain" 0 (Chan.length c);
  check Alcotest.bool "push after drain" true (Chan.try_push c 5);
  check Alcotest.(list int) "drained again" [ 5 ] (drain_list c)

(* The same FIFO order and capacity bound through slice pushes, with
   the counters wrapped past the ring's end: a slice longer than the
   free room is cut at the bound, and the cut tail is not stored. *)
let test_chan_spsc_fifo_and_bound () =
  let c = Chan.create_spsc ~capacity:3 ~dummy:0 in
  check Alcotest.bool "push 1" true (Chan.try_push c 1);
  check Alcotest.bool "push 2" true (Chan.try_push c 2);
  check Alcotest.(list int) "drain moves the head" [ 1; 2 ] (drain_list c);
  let src = [| 0; 3; 4; 5; 6; 7 |] in
  check Alcotest.int "slice cut at capacity" 3
    (Chan.push_slice c src ~off:1 ~len:5);
  check Alcotest.int "length" 3 (Chan.length c);
  check Alcotest.bool "push over capacity" false (Chan.try_push c 8);
  check Alcotest.(list int) "fifo across the end" [ 3; 4; 5 ] (drain_list c);
  check Alcotest.int "empty after drain" 0 (Chan.length c);
  check Alcotest.int "slice after drain" 2
    (Chan.push_slice c src ~off:4 ~len:2);
  check Alcotest.(list int) "drained again" [ 6; 7 ] (drain_list c)

(* The ring against a capacity-bounded [Queue.t] model: any
   single-threaded sequence of pushes, slice pushes (from inside a
   longer array), drains and length reads must agree.  A case runs up
   to 120 operations on 5 cells, so the counters wrap the ring many
   times and slices are split across its end. *)
let prop_chan_like_bounded_queue =
  let cap = 5 in
  let op_gen = QCheck.Gen.(triple (int_bound 3) small_nat (int_bound 7)) in
  qtest ~count:300 "ring behaves like a bounded queue"
    (QCheck.make QCheck.Gen.(list_size (int_bound 120) op_gen))
    (fun ops ->
       let c = Chan.create_spsc ~capacity:cap ~dummy:(-1) in
       let model = Queue.create () in
       let push v =
         Queue.length model < cap && (Queue.push v model; true)
       in
       let drain_model () =
         let all = List.of_seq (Queue.to_seq model) in
         Queue.clear model;
         all
       in
       let buf = ref [||] in
       List.for_all
         (fun (op, v, len) ->
            match op with
            | 0 -> Chan.try_push c v = push v
            | 1 ->
              let n = Chan.drain_into c buf in
              Array.to_list (Array.sub !buf 0 n) = drain_model ()
            | 2 -> Chan.length c = Queue.length model
            | _ ->
              let off = v mod 3 in
              let src = Array.init (off + len + 1) (fun i -> v + i) in
              let fit =
                List.length
                  (List.filter push (Array.to_list (Array.sub src off len)))
              in
              Chan.push_slice c src ~off ~len = fit)
         ops
       && drain_list c = drain_model ())

(* One producer domain, one consumer domain: nothing lost, nothing
   duplicated, order preserved — the contract the serve path relies
   on. *)
let test_chan_spsc_two_domains () =
  let total = 20_000 in
  let c = Chan.create_spsc ~capacity:64 ~dummy:(-1) in
  let producer =
    Domain.spawn (fun () ->
        for v = 0 to total - 1 do
          while not (Chan.try_push c v) do
            Domain.cpu_relax ()
          done
        done)
  in
  let buf = ref [||] in
  let seen = ref 0 and ok = ref true in
  while !seen < total do
    let n = Chan.drain_into c buf in
    for i = 0 to n - 1 do
      if !buf.(i) <> !seen + i then ok := false
    done;
    seen := !seen + n;
    if n = 0 then Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "values arrive in order, none lost" true !ok;
  check Alcotest.int "nothing extra" 0 (Chan.length c)

(* ------------------------------------------------------------------ *)
(* address parsing *)

let test_addr_of_string () =
  (match Server.addr_of_string "tcp:127.0.0.1:7477" with
   | Ok (Server.Tcp ("127.0.0.1", 7477)) -> ()
   | _ -> Alcotest.fail "tcp parse");
  (match Server.addr_of_string "unix:/tmp/x.sock" with
   | Ok (Server.Unix_sock "/tmp/x.sock") -> ()
   | _ -> Alcotest.fail "unix parse");
  List.iter
    (fun s ->
       match Server.addr_of_string s with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%S accepted" s)
    [ ""; "tcp:"; "tcp:host"; "tcp:host:notaport"; "unix:"; "ftp:x" ]

(* ------------------------------------------------------------------ *)
(* one shard driven by hand *)

(* A shard routes each terminal through its id-indexed task ring.  Admit
   640 tasks over four rounds to n = 4 resources with deadlines 1..8, so
   far more than the ring's initial 256 ids are open at once (it doubles
   while they are) and they terminate out of id order; every task, each
   with its own (conn, tag), must get exactly one terminal carrying both. *)
let test_shard_ring_growth () =
  let n = 4 and d = 8 and per_round = 160 and rounds = 4 in
  let total = per_round * rounds in
  let outbox =
    Chan.create_spsc ~capacity:(2 * total)
      ~dummy:(-1, Protocol.Round { round = -1 })
  in
  let shard =
    Serve.Shard.create ~index:0 ~lo:0 ~hi:n ~d ~queue_capacity:per_round
      ~strategy:(Strategies.Global.fix ()) ~outbox ()
  in
  let rng = Prelude.Rng.create ~seed:19 in
  let conn_of tag = 1000 + (7 * tag) in
  let terminals = Array.make total 0 and misrouted = ref 0 in
  let open_span = ref 0 and buf = ref [||] in
  for round = 0 to rounds + d do
    if round < rounds then
      for j = 0 to per_round - 1 do
        let tag = (round * per_round) + j in
        let task =
          { Serve.Shard.conn = conn_of tag; tag;
            alternatives = [ Prelude.Rng.int rng n ];
            deadline = 1 + Prelude.Rng.int rng d }
        in
        if not (Serve.Shard.try_admit shard task) then
          Alcotest.fail "inbox full"
      done;
    (* ids follow admission order here, so the open span is the next
       id minus the oldest tag still without a terminal *)
    let next = min total ((round + 1) * per_round) in
    let rec oldest i =
      if i < next && terminals.(i) > 0 then oldest (i + 1) else i
    in
    open_span := max !open_span (next - oldest 0);
    Serve.Shard.step_once shard;
    for i = 0 to Chan.drain_into outbox buf - 1 do
      match !buf.(i) with
      | conn, (Protocol.Scheduled { tag; _ } | Protocol.Expired { tag })
        when tag >= 0 && tag < total && conn = conn_of tag ->
        terminals.(tag) <- terminals.(tag) + 1
      | _ -> incr misrouted
    done
  done;
  check Alcotest.bool "open ids outgrew the initial ring" true
    (!open_span > 256);
  check Alcotest.int "no terminal misrouted" 0 !misrouted;
  check Alcotest.(list int) "tags without exactly one terminal" []
    (List.filter (fun tag -> terminals.(tag) <> 1) (List.init total Fun.id))

(* Minor words a steady-state [Shard.step_once] allocates per request
   under greedy_2choice: a shard owning resources 0..7 of 16 gets 48
   two-choice tasks a round, the second alternative outside its slice
   half the time (deadlines 1..4, so most expire).  Admission and the
   outbox drain are outside the measurement.  What is left is the
   request's local alternatives and engine record, its reply and
   outbox pair, and the strategy's own (18.2 words; the round's metric
   updates go through handles and allocate nothing); the bound sits
   just above the measured figure, so a per-task list, closure or
   by-name metrics update cannot come back unseen. *)
let shard_step_words_bound = 18.5

let test_shard_step_words () =
  let per = 48 and warmup = 100 and rounds = 400 in
  let outbox =
    Chan.create_spsc ~capacity:(4 * per)
      ~dummy:(-1, Protocol.Round { round = -1 })
  in
  let shard =
    Serve.Shard.create ~index:0 ~lo:0 ~hi:8 ~d:4 ~queue_capacity:per
      ~strategy:(Strategies.Twochoice.least_loaded ()) ~outbox ()
  in
  let tasks round =
    Array.init per (fun j ->
        let a = (j + round) mod 8 in
        { Serve.Shard.conn = 1; tag = (round * per) + j;
          alternatives = [ a; (a + 1 + (j mod 2 * 8)) mod 16 ];
          deadline = 1 + ((j + round) mod 4) })
  in
  let buf = ref [||] and words = ref 0. in
  let probe = (let b = Gc.minor_words () in Gc.minor_words () -. b) in
  for round = 1 to warmup + rounds do
    let ts = tasks round in
    if Serve.Shard.try_admit_many shard ts ~off:0 ~len:per <> per then
      Alcotest.fail "inbox full";
    let before = Gc.minor_words () in
    Serve.Shard.step_once shard;
    let spent = Gc.minor_words () -. before -. probe in
    if round > warmup then words := !words +. spent;
    ignore (Chan.drain_into outbox buf)
  done;
  let per_request = !words /. float_of_int (rounds * per) in
  if per_request > shard_step_words_bound then
    Alcotest.failf
      "Shard.step_once allocates %.2f words per request (bound %.1f)"
      per_request shard_step_words_bound

(* ------------------------------------------------------------------ *)
(* end-to-end on loopback unix sockets *)

let fresh_sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched_test_%d_%d.sock" (Unix.getpid ()) !counter)

(* Start a server, run [f], then drain and return (f's result, final
   metrics snapshot).  Every shard runs [strategy] (default A_balance). *)
let with_server ?(shards = 2) ?(domains = 0) ?(n = 8) ?(d = 4)
    ?(queue_capacity = 1024) ?(max_batch = 512) ?(outbox_capacity = 4096)
    ?(tick = `Manual) ?(strategy = fun () -> Strategies.Global.balance ())
    f =
  let path = fresh_sock_path () in
  let cfg =
    {
      Server.addr = Server.Unix_sock path;
      n_resources = n;
      d;
      shards;
      domains;
      strategy = (fun ~shard:_ ~metrics:_ -> strategy ());
      tick;
      queue_capacity;
      max_batch;
      outbox_capacity;
      read_timeout = 10.0;
      name = "test";
    }
  in
  match Server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    let finally () =
      Server.drain srv;
      ignore (Server.wait srv);
      try Sys.remove path with Sys_error _ -> ()
    in
    let result =
      try f (Server.Unix_sock path) srv
      with e ->
        finally ();
        raise e
    in
    Server.drain srv;
    let snap = Server.wait srv in
    (try Sys.remove path with Sys_error _ -> ());
    (result, snap)

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter v) -> v
  | Some _ | None -> 0

let random_instance ~n ~d ~rounds ~load ~seed =
  let rng = Prelude.Rng.create ~seed in
  Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load ()

let run_open ?(tick = `Manual) addr inst =
  match Client.open_loop ~addr ~inst ~tick () with
  | Error m -> Alcotest.failf "open_loop: %s" m
  | Ok r -> r

let test_e2e_exactly_one_terminal () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:30 ~load:1.5 ~seed:11 in
  let r, snap =
    with_server ~shards:2 ~n:8 ~d:4 (fun addr _ -> run_open addr inst)
  in
  check Alcotest.int "every request submitted"
    (Instance.n_requests inst) r.Client.submitted;
  check Alcotest.int "terminals partition the submissions"
    r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.int "one decision per tag" r.Client.submitted
    (Array.length r.Client.decisions);
  check Alcotest.bool "something got scheduled" true (r.Client.scheduled > 0);
  (* server-side accounting agrees with the client's view *)
  check Alcotest.int "server served counter" r.Client.scheduled
    (counter snap "serve.served");
  check Alcotest.int "server expired counter" r.Client.expired
    (counter snap "serve.expired");
  check Alcotest.int "no client errors" 0 (counter snap "serve.client_errors");
  check Alcotest.int "no dropped responses" 0
    (counter snap "serve.responses_dropped")

(* The I/O loop's counters against the client's own tally: every line
   the client writes is one [serve.lines_in], every line it reads one
   [serve.responses_out], every request it submits one
   [serve.requests], and every one not rejected one [serve.admitted].
   The protocol is driven by hand so the client counts its own lines;
   [batch] > 1 sends a round's arrivals as batch frames of that size. *)
let test_e2e_io_counters_match_client () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:30 ~load:1.5 ~seed:17 in
  let run batch =
    let tally, snap =
      with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
          let ok what = function
            | Ok v -> v
            | Error m -> Alcotest.failf "%s: %s" what m
          in
          (* connect sends hello and reads welcome *)
          let conn = ok "connect" (Client.connect addr ~client:"counter") in
          let sent = ref 1 and received = ref 1 in
          let submitted = ref 0 and rejected = ref 0 and terminals = ref 0 in
          let send msg =
            ok "send" (Client.send conn msg);
            incr sent
          in
          let take msg =
            incr received;
            match Protocol.terminal_tag msg with
            | Some _ ->
              incr terminals;
              (match msg with
               | Protocol.Rejected _ -> incr rejected
               | _ -> ())
            | None -> ()
          in
          for round = 0 to inst.Instance.horizon - 1 do
            let reqs =
              Array.to_list
                (Array.map
                   (fun (r : Request.t) ->
                      { Protocol.tag = r.Request.id;
                        alternatives = Array.to_list r.Request.alternatives;
                        deadline = r.Request.deadline })
                   (Instance.arrivals_at inst round))
            in
            submitted := !submitted + List.length reqs;
            let rec chunks = function
              | [] -> ()
              | reqs when batch = 1 ->
                List.iter (fun r -> send (Protocol.Submit r)) reqs
              | reqs ->
                let rec split k acc = function
                  | r :: rest when k > 0 -> split (k - 1) (r :: acc) rest
                  | rest -> (List.rev acc, rest)
                in
                let group, rest = split batch [] reqs in
                send (Protocol.Batch group);
                chunks rest
            in
            chunks reqs;
            send Protocol.Tick;
            let rec await () =
              match ok "recv" (Client.recv conn) with
              | Protocol.Round { round = r } when r >= round -> incr received
              | msg ->
                take msg;
                await ()
            in
            await ()
          done;
          while !terminals < !submitted do
            take (ok "recv terminal" (Client.recv conn))
          done;
          send Protocol.Bye;
          (* the server closes once it has read the bye *)
          (match Client.recv ~timeout:10.0 conn with
           | Error _ -> ()
           | Ok msg ->
             Alcotest.failf "unexpected line after bye: %s"
               (Protocol.render_server msg));
          Client.close conn;
          (!sent, !received, !submitted, !rejected))
    in
    let sent, received, submitted, rejected = tally in
    let name what = Printf.sprintf "batch=%d %s" batch what in
    check Alcotest.bool (name "requests submitted") true (submitted > 0);
    check Alcotest.int (name "serve.requests") submitted
      (counter snap "serve.requests");
    check Alcotest.int (name "serve.admitted") (submitted - rejected)
      (counter snap "serve.admitted");
    check Alcotest.int (name "serve.lines_in") sent
      (counter snap "serve.lines_in");
    check Alcotest.int (name "serve.responses_out") received
      (counter snap "serve.responses_out")
  in
  run 1;
  run 4

(* Shards count the alternatives they drop once per round; the total
   must equal the out-of-slice alternatives of the submitted stream,
   counted here from the instance with the server's slice layout (a
   request lives on the shard of its first alternative). *)
let test_e2e_truncation_counted () =
  let n = 8 and shards = 4 in
  (* three alternatives, so a task can lose two *)
  let inst =
    Adversary.Random_workload.make ~rng:(Prelude.Rng.create ~seed:23) ~n
      ~d:4 ~rounds:30 ~load:1.5 ~alternatives:3 ()
  in
  let stride = (n + shards - 1) / shards in
  let out_of_slice =
    Array.fold_left
      (fun acc (r : Request.t) ->
         let home = r.Request.alternatives.(0) / stride in
         Array.fold_left
           (fun acc a -> if a / stride <> home then acc + 1 else acc)
           acc r.Request.alternatives)
      0 inst.Instance.requests
  in
  let r, snap =
    with_server ~shards ~n ~d:4 (fun addr _ -> run_open addr inst)
  in
  check Alcotest.int "every request admitted" 0 r.Client.rejected;
  check Alcotest.bool "the stream crosses slices" true (out_of_slice > 0);
  check Alcotest.int "serve.truncated_alternatives" out_of_slice
    (counter snap "serve.truncated_alternatives")

(* Sharding is cutting: under manual ticks a k-shard server decides
   every tag as Engine.run decides that request on its shard's cut
   sub-instance — requests routed by their first alternative, the
   alternatives outside the slice dropped, resources shifted by the
   slice start. *)
let test_e2e_shards_are_cut_instances () =
  let n = 8 and d = 4 in
  let inst =
    Adversary.Random_workload.make ~rng:(Prelude.Rng.create ~seed:41) ~n ~d
      ~rounds:30 ~load:1.4 ~alternatives:3 ()
  in
  let requests = Array.to_list inst.Instance.requests in
  let cut_decisions make shards =
    let stride = (n + shards - 1) / shards in
    let lines = Array.make (List.length requests) "" in
    for k = 0 to ((n + stride - 1) / stride) - 1 do
      let lo = k * stride and hi = min n ((k + 1) * stride) in
      let mine =
        List.filter
          (fun (r : Request.t) -> r.Request.alternatives.(0) / stride = k)
          requests
      in
      let cut =
        Instance.build ~n_resources:(hi - lo) ~d
          (List.map
             (fun (r : Request.t) ->
                Request.make ~arrival:r.Request.arrival
                  ~deadline:r.Request.deadline
                  ~alternatives:
                    (List.filter_map
                       (fun a ->
                          if a >= lo && a < hi then Some (a - lo) else None)
                       (Array.to_list r.Request.alternatives)))
             mine)
      in
      let o = Sched.Engine.run cut (make ()) in
      List.iteri
        (fun i (r : Request.t) ->
           let tag = r.Request.id in
           lines.(tag) <-
             (match o.Sched.Outcome.served_at.(i) with
              | Some (res, round) ->
                Printf.sprintf "t%d sched@%d S%d\n" tag round (res + lo)
              | None -> Printf.sprintf "t%d exp\n" tag))
        mine
    done;
    String.concat "" (Array.to_list lines)
  in
  List.iter
    (fun (name, make) ->
       List.iter
         (fun shards ->
            let r, _ =
              with_server ~shards ~n ~d ~strategy:make (fun addr _ ->
                  run_open addr inst)
            in
            check Alcotest.string
              (Printf.sprintf "%s at %d shard(s)" name shards)
              (cut_decisions make shards)
              (Client.render_decisions r))
         [ 1; 2; 4 ])
    [
      ("balance", fun () -> Strategies.Global.balance ());
      ("greedy_2choice", fun () -> Strategies.Twochoice.least_loaded ());
    ];
  let balance () = Strategies.Global.balance () in
  check Alcotest.bool "cutting changes decisions" true
    (cut_decisions balance 1 <> cut_decisions balance 4)

let decisions_of_fresh_run ~shards inst =
  let r, _ = with_server ~shards ~n:8 ~d:4 (fun addr _ -> run_open addr inst) in
  Client.render_decisions r

let test_e2e_replay_deterministic () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:1.3 ~seed:5 in
  List.iter
    (fun shards ->
       let a = decisions_of_fresh_run ~shards inst in
       let b = decisions_of_fresh_run ~shards inst in
       check Alcotest.string
         (Printf.sprintf "byte-identical decisions at %d shard(s)" shards)
         a b;
       check Alcotest.bool "log is non-trivial" true (String.length a > 0))
    [ 1; 2 ]

(* The load-bearing property of the worker-domain rebuild: under manual
   ticks, the decision stream and the decision-derived counters are a
   function of the instance alone, not of how many domains step the
   shards.  (serve.outbox_stalls is excluded — it counts backpressure
   timing, which legitimately varies run to run.) *)
let test_e2e_domains_invariant () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:1.4 ~seed:31 in
  let run domains =
    let r, snap =
      with_server ~shards:4 ~domains ~n:8 ~d:4 (fun addr _ ->
          run_open addr inst)
    in
    (Client.render_decisions r, snap)
  in
  let counters snap =
    List.filter_map
      (function
        | ("serve.outbox_stalls", _) -> None
        | (k, Obs.Metrics.Counter v) -> Some (k, v)
        | _ -> None)
      snap
    |> List.sort compare
  in
  let base_dec, base_snap = run 1 in
  check Alcotest.bool "log is non-trivial" true (String.length base_dec > 0);
  List.iter
    (fun domains ->
       let dec, snap = run domains in
       check Alcotest.string
         (Printf.sprintf "decisions byte-identical at %d domain(s)" domains)
         base_dec dec;
       check
         Alcotest.(list (pair string int))
         (Printf.sprintf "merged counters identical at %d domain(s)" domains)
         (counters base_snap) (counters snap))
    [ 2; 4 ]

(* The warm-start kernel against its from-scratch rebuild oracle,
   through sharding, the wire protocol and the live engine: under manual
   ticks both must produce the same decision log byte for byte, for a
   full-family (balance) and a fix-family (fix) kernel. *)
let test_e2e_kernel_equals_rebuild () =
  let inst = random_instance ~n:16 ~d:4 ~rounds:60 ~load:1.1 ~seed:55 in
  List.iter
    (fun (name, make) ->
       let run solver =
         let r, _ =
           with_server ~shards:2 ~n:16 ~d:4
             ~strategy:(fun () -> make ~solver)
             (fun addr _ -> run_open addr inst)
         in
         Client.render_decisions r
       in
       let kernel = run Strategies.Global.Kernel in
       check Alcotest.bool (name ^ " log is non-trivial") true
         (String.length kernel > 0);
       check Alcotest.string
         (name ^ " kernel == rebuild byte-identical")
         kernel
         (run Strategies.Global.Rebuild))
    [
      ("balance", fun ~solver -> Strategies.Global.balance ~solver ());
      ("fix", fun ~solver -> Strategies.Global.fix ~solver ());
    ]

let test_e2e_codec_replay_equals_original () =
  (* save the trace, reload it, and check the reloaded instance drives
     the server to the same decisions — the save/load/wire grammar is
     one and the same *)
  let inst = random_instance ~n:8 ~d:4 ~rounds:20 ~load:1.2 ~seed:23 in
  let path = Filename.temp_file "reqsched_trace" ".rsp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Sched.Codec.save ~path inst;
       let inst' =
         match Sched.Codec.load ~path with
         | Ok i -> i
         | Error m -> Alcotest.failf "trace load: %s" m
       in
       let a = decisions_of_fresh_run ~shards:2 inst in
       let b = decisions_of_fresh_run ~shards:2 inst' in
       check Alcotest.string "trace replay matches live run" a b)

let test_e2e_interval_tick () =
  let inst = random_instance ~n:6 ~d:3 ~rounds:15 ~load:1.0 ~seed:7 in
  let r, _ =
    with_server ~shards:2 ~n:6 ~d:3 ~tick:(`Every 0.01) (fun addr _ ->
        run_open ~tick:(`Every 0.01) addr inst)
  in
  check Alcotest.int "all terminals collected" r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired)

let test_e2e_overload_rejects () =
  (* ten same-resource requests land in one un-ticked round against a
     capacity-1 inbox: one admitted, nine explicit overload rejects —
     as ten lines, and as one batch frame whose shard share only
     partly fits *)
  let inst =
    Instance.build ~n_resources:8 ~d:4
      (List.init 10 (fun _ ->
           Request.make ~arrival:0 ~alternatives:[ 0 ] ~deadline:4))
  in
  List.iter
    (fun batch ->
       let r, snap =
         with_server ~shards:2 ~n:8 ~d:4 ~queue_capacity:1 (fun addr _ ->
             match Client.open_loop ~addr ~inst ~tick:`Manual ~batch () with
             | Error m -> Alcotest.failf "open_loop: %s" m
             | Ok r -> r)
       in
       let what s = Printf.sprintf "batch=%d: %s" batch s in
       check Alcotest.int (what "one admitted and served") 1
         r.Client.scheduled;
       check Alcotest.int (what "rest rejected, not dropped") 9
         r.Client.rejected;
       check Alcotest.int (what "overload counter") 9
         (counter snap "serve.rejected.overload");
       check Alcotest.int (what "still exactly one terminal each") 10
         (Array.length r.Client.decisions))
    [ 1; 10 ]

let test_e2e_closed_loop () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:10 ~load:1.0 ~seed:9 in
  let r, _ =
    with_server ~shards:2 ~n:8 ~d:4 ~tick:(`Every 0.005) (fun addr _ ->
        match Client.closed_loop ~addr ~inst ~users:8 ~total:60 () with
        | Error m -> Alcotest.failf "closed_loop: %s" m
        | Ok r -> r)
  in
  check Alcotest.int "total resolved" 60
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.int "total submitted" 60 r.Client.submitted

let test_e2e_client_failure_isolated () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:12 ~load:1.2 ~seed:31 in
  let (), snap =
    with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
        (* rude client: greet, submit with requests in flight, vanish *)
        (match Client.connect addr ~client:"rude" with
         | Error m -> Alcotest.failf "rude connect: %s" m
         | Ok conn ->
           List.iter
             (fun tag ->
                match
                  Client.send conn
                    (Protocol.Submit
                       { Protocol.tag; alternatives = [ 0; 4 ]; deadline = 2 })
                with
                | Ok () -> ()
                | Error m -> Alcotest.failf "rude submit: %s" m)
             [ 0; 1; 2 ];
           Client.close conn);
        (* give the I/O loop a moment to observe the EOF *)
        Unix.sleepf 0.1;
        (* a well-behaved client is unaffected *)
        let r = run_open addr inst in
        check Alcotest.int "healthy client unaffected" r.Client.submitted
          (r.Client.scheduled + r.Client.rejected + r.Client.expired))
  in
  check Alcotest.bool "abrupt close with inflight counted" true
    (counter snap "serve.client_errors" >= 1);
  check Alcotest.int "no shard crashed" 0 (counter snap "serve.shard_crashes")

let test_e2e_draining_rejects_new_submissions () =
  (* a slow interval ticker keeps the in-flight request's window open
     long enough that the drain is still in progress when the late
     submission arrives *)
  let (), snap =
    with_server ~shards:1 ~n:4 ~d:3 ~tick:(`Every 0.15) (fun addr srv ->
        match Client.connect addr ~client:"late" with
        | Error m -> Alcotest.failf "connect: %s" m
        | Ok conn ->
          (match
             Client.send conn
               (Protocol.Submit
                  { Protocol.tag = 0; alternatives = [ 0 ]; deadline = 3 })
           with
           | Ok () -> ()
           | Error m -> Alcotest.failf "inflight send: %s" m);
          Unix.sleepf 0.03;
          Server.drain srv;
          Unix.sleepf 0.03;
          (match
             Client.send conn
               (Protocol.Submit
                  { Protocol.tag = 1; alternatives = [ 1 ]; deadline = 1 })
           with
           | Ok () -> ()
           | Error m -> Alcotest.failf "late send: %s" m);
          (* collect both terminals: the late one a draining reject, the
             in-flight one served to its deadline *)
          let seen = Hashtbl.create 4 in
          let rec collect () =
            if Hashtbl.length seen < 2 then
              match Client.recv ~timeout:5.0 conn with
              | Ok msg ->
                (match Protocol.terminal_tag msg with
                 | Some tag -> Hashtbl.replace seen tag msg
                 | None -> ());
                collect ()
              | Error m -> Alcotest.failf "recv: %s" m
          in
          collect ();
          (match Hashtbl.find_opt seen 1 with
           | Some (Protocol.Rejected { reason = Protocol.Draining; _ }) -> ()
           | Some m ->
             Alcotest.failf "expected draining reject for tag 1, got %S"
               (Protocol.render_server m)
           | None -> Alcotest.fail "no terminal for tag 1");
          (match Hashtbl.find_opt seen 0 with
           | Some (Protocol.Scheduled _) -> ()
           | Some m ->
             Alcotest.failf "expected tag 0 served during drain, got %S"
               (Protocol.render_server m)
           | None -> Alcotest.fail "no terminal for tag 0");
          Client.close conn)
  in
  check Alcotest.bool "draining reject counted" true
    (counter snap "serve.rejected.draining" >= 1)

(* ------------------------------------------------------------------ *)
(* batching, outbox backpressure, and listener/resolver failure modes *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_e2e_batched_replay_identical () =
  (* the batch frame is pure wire-level chunking: for every batch size
     the decision log must be byte-identical to per-line submission *)
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:2.0 ~seed:41 in
  let run batch =
    let r, snap =
      with_server ~shards:2 ~n:8 ~d:4 (fun addr _ ->
          match Client.open_loop ~addr ~inst ~tick:`Manual ~batch () with
          | Error m -> Alcotest.failf "open_loop batch=%d: %s" batch m
          | Ok r -> r)
    in
    ( Client.render_decisions r,
      counter snap "serve.batches_in",
      counter snap "serve.lines_in" )
  in
  let baseline, frames1, lines1 = run 1 in
  check Alcotest.bool "log is non-trivial" true (String.length baseline > 0);
  check Alcotest.int "batch=1 stays on the per-line frame" 0 frames1;
  List.iter
    (fun batch ->
       let log, frames, lines = run batch in
       check Alcotest.string
         (Printf.sprintf "batch=%d decisions byte-identical" batch)
         baseline log;
       check Alcotest.bool
         (Printf.sprintf "batch=%d actually sent batch frames" batch)
         true (frames > 0);
       (* a round's k arrivals go out as ceil(k/b) frames instead of k
          lines; every other line (hello, ticks, bye) is unchanged *)
       let saved = ref 0 in
       for round = 0 to inst.Instance.horizon - 1 do
         let k = Array.length (Instance.arrivals_at inst round) in
         saved := !saved + k - ((k + batch - 1) / batch)
       done;
       check Alcotest.int
         (Printf.sprintf "batch=%d frame count" batch)
         (lines1 - !saved) lines)
    [ 3; 64 ]

let test_e2e_outbox_overflow_no_reply_dropped () =
  (* a capacity-1 outbox forces the shards to stall on nearly every
     reply; the stall must be counted and every tag must still get its
     terminal — the silent-drop bug this PR fixes *)
  let inst = random_instance ~n:8 ~d:4 ~rounds:20 ~load:3.0 ~seed:17 in
  let r, snap =
    with_server ~shards:2 ~n:8 ~d:4 ~outbox_capacity:1 (fun addr _ ->
        run_open addr inst)
  in
  check Alcotest.int "every tag still gets exactly one terminal"
    r.Client.submitted
    (Array.length r.Client.decisions);
  check Alcotest.int "terminals partition the submissions" r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.bool "the capacity-1 outbox actually stalled" true
    (counter snap "serve.outbox_stalls" > 0);
  check Alcotest.int "no dropped responses" 0
    (counter snap "serve.responses_dropped")

let test_e2e_oversize_batch_rejected () =
  (* a batch over the server's limit is rejected whole — one terminal
     per entry, nothing admitted, nothing dropped *)
  let (), snap =
    with_server ~shards:2 ~n:8 ~d:4 ~max_batch:2 (fun addr _ ->
        match Client.connect addr ~client:"big" with
        | Error m -> Alcotest.failf "connect: %s" m
        | Ok conn ->
          let reqs =
            List.init 3 (fun tag ->
                { Protocol.tag; alternatives = [ tag ]; deadline = 2 })
          in
          (match Client.send conn (Protocol.Batch reqs) with
           | Ok () -> ()
           | Error m -> Alcotest.failf "send: %s" m);
          let seen = ref 0 in
          while !seen < 3 do
            match Client.recv ~timeout:5.0 conn with
            | Ok (Protocol.Rejected { reason = Protocol.Invalid _; _ }) ->
              incr seen
            | Ok msg ->
              Alcotest.failf "expected invalid reject, got %S"
                (Protocol.render_server msg)
            | Error m -> Alcotest.failf "recv: %s" m
          done;
          Client.close conn)
  in
  check Alcotest.int "nothing reached a shard" 0 (counter snap "serve.served")

(* The line bound is exact: a line of [max_line] (65536) bytes is an
   ordinary (here unknown) message, one byte more is "line too long"
   and a close — also when its newline arrives in the read that
   crosses the bound. *)
let test_e2e_line_too_long () =
  let max_line = 65536 in
  let converse addr payload =
    let path = match addr with Server.Unix_sock p -> p | Server.Tcp _ -> "" in
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX path);
        Serve.Lineio.write_all fd ("hello rsp/1 t\n" ^ payload);
        let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
        let rec read_all () =
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ -> Alcotest.fail "server neither answered nor closed"
          | _ ->
            (match Unix.read fd chunk 0 4096 with
             | 0 -> ()
             | n ->
               Buffer.add_subbytes buf chunk 0 n;
               read_all ())
        in
        read_all ();
        Serve.Lineio.extract_lines buf)
  in
  let (), snap =
    with_server ~shards:1 (fun addr _ ->
        (match converse addr (String.make (max_line + 1) 'x' ^ "\n") with
         | [ welcome; error ] ->
           check Alcotest.string "welcome" "welcome rsp/1 test" welcome;
           check Alcotest.string "one byte over" "error line too long" error
         | lines ->
           Alcotest.failf "over the bound: got %d lines" (List.length lines));
        (match converse addr (String.make (max_line + 1) 'x') with
         | [ _; error ] ->
           check Alcotest.string "partial line over" "error line too long"
             error
         | lines ->
           Alcotest.failf "partial over the bound: got %d lines"
             (List.length lines));
        match converse addr (String.make max_line 'x' ^ "\n") with
        | [ _; error ] ->
          check Alcotest.bool "at the bound the line is parsed" true
            (String.starts_with ~prefix:"error unknown client message" error)
        | lines ->
          Alcotest.failf "at the bound: got %d lines" (List.length lines))
  in
  check Alcotest.int "three protocol errors" 3
    (counter snap "serve.protocol_errors")

(* A connection whose descriptor select cannot watch (>= FD_SETSIZE,
   1024) is refused at accept with an explicit error line, and the
   connections already open keep their service: before, the next
   select failed with EINVAL and ended the I/O loop.  The test process
   fills its descriptor table past 1024 (the server runs in it), so
   the raw connection's accepted descriptor is a high one. *)
let test_e2e_descriptor_limit () =
  let send conn msg =
    match Client.send conn msg with
    | Ok () -> ()
    | Error m -> Alcotest.failf "send: %s" m
  in
  let submit conn tag =
    send conn
      (Protocol.Submit { Protocol.tag; alternatives = [ 0; 1 ]; deadline = 2 })
  in
  let (), snap =
    with_server ~shards:1 ~n:4 ~d:2 (fun addr _ ->
        let conn =
          match Client.connect addr ~client:"early" with
          | Ok c -> c
          | Error m -> Alcotest.failf "connect: %s" m
        in
        List.iter (submit conn) [ 0; 1; 2 ];
        let spare =
          List.init 1030 (fun _ ->
              Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
        in
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close spare)
          (fun () ->
             let path =
               match addr with Server.Unix_sock p -> p | Server.Tcp _ -> ""
             in
             let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             Fun.protect
               ~finally:(fun () -> Unix.close fd)
               (fun () ->
                  Unix.connect fd (Unix.ADDR_UNIX path);
                  (* no select here: this descriptor is a high one too *)
                  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
                  let buf = Buffer.create 64 and chunk = Bytes.create 256 in
                  let rec read_all () =
                    match Unix.read fd chunk 0 256 with
                    | 0 -> ()
                    | k ->
                      Buffer.add_subbytes buf chunk 0 k;
                      read_all ()
                    | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
                      Alcotest.fail "the refused connection was left open"
                  in
                  read_all ();
                  check Alcotest.(list string) "refused with an error line"
                    [ "error server descriptor limit reached" ]
                    (Serve.Lineio.extract_lines buf)));
        (* the early client keeps its service: one terminal per request *)
        List.iter (submit conn) [ 3; 4; 5 ];
        let terminals = Array.make 6 0 in
        let rec tick k =
          if k > 0 && Array.exists (fun c -> c = 0) terminals then begin
            send conn Protocol.Tick;
            let rec until_round () =
              match Client.recv ~timeout:5.0 conn with
              | Ok (Protocol.Round _) -> ()
              | Ok msg ->
                Option.iter
                  (fun tag -> terminals.(tag) <- terminals.(tag) + 1)
                  (Protocol.terminal_tag msg);
                until_round ()
              | Error m -> Alcotest.failf "recv: %s" m
            in
            until_round ();
            tick (k - 1)
          end
        in
        tick 8;
        check Alcotest.(array int) "one terminal per request"
          (Array.make 6 1) terminals;
        send conn Protocol.Bye;
        Client.close conn)
  in
  check Alcotest.int "refusal counted" 1 (counter snap "serve.rejected.fd_limit");
  check Alcotest.int "no client errors" 0 (counter snap "serve.client_errors")

let base_cfg addr =
  {
    Server.addr;
    n_resources = 8;
    d = 4;
    shards = 2;
    domains = 0;
    strategy = (fun ~shard:_ ~metrics:_ -> Strategies.Global.balance ());
    tick = `Manual;
    queue_capacity = 64;
    max_batch = 512;
    outbox_capacity = 64;
    read_timeout = 10.0;
    name = "test";
  }

let test_start_bad_hostname () =
  (* an unresolvable host must come back as a clean [Error], not an
     uncaught [Not_found] out of gethostbyname *)
  match Server.start (base_cfg (Server.Tcp ("no-such-host.invalid", 1))) with
  | Error m ->
    check Alcotest.bool "error names the host" true
      (contains_sub ~sub:"no-such-host.invalid" m)
  | Ok srv ->
    Server.drain srv;
    ignore (Server.wait srv);
    Alcotest.fail "start succeeded on an unresolvable host"

let test_start_refuses_non_socket_path () =
  (* a regular file at the unix-socket path is someone else's data: the
     server must refuse to start and leave the file untouched *)
  let path = Filename.temp_file "reqsched_notsock" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out path in
       output_string oc "precious\n";
       close_out oc;
       (match Server.start (base_cfg (Server.Unix_sock path)) with
        | Error m ->
          check Alcotest.bool "error says why" true
            (contains_sub ~sub:"not a socket" m)
        | Ok srv ->
          Server.drain srv;
          ignore (Server.wait srv);
          Alcotest.fail "server started over a regular file");
       let ic = open_in path in
       let line = input_line ic in
       close_in ic;
       check Alcotest.string "file contents preserved" "precious" line)

(* The listening socket itself must be one select can watch: past
   FD_SETSIZE the server refuses to start (before, it started and its
   I/O loop died at the first select). *)
let test_start_refuses_high_listener () =
  let path = fresh_sock_path () in
  let spare =
    List.init 1030 (fun _ ->
        Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close spare)
    (fun () ->
       match Server.start (base_cfg (Server.Unix_sock path)) with
       | Error m ->
         check Alcotest.bool ("error says why: " ^ m) true
           (contains_sub ~sub:"descriptor" m);
         check Alcotest.bool "socket path removed" false (Sys.file_exists path)
       | Ok srv ->
         (try
            Server.drain srv;
            ignore (Server.wait srv)
          with _ -> ());
         (try Sys.remove path with Sys_error _ -> ());
         Alcotest.fail "server started on a descriptor select cannot watch")

let test_start_refuses_too_many_domains () =
  (* 256 resources in 200 shards are 128 two-resource shards, one worker
     domain each: with the I/O and main domains that is 130, past the
     runtime's 128.  start must refuse before it opens the listener or
     spawns anything. *)
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched_domains_%d.sock" (Unix.getpid ()))
  in
  check Alcotest.bool "no socket before" false (Sys.file_exists path);
  (match
     Server.start
       { (base_cfg (Server.Unix_sock path)) with
         n_resources = 256; shards = 200 }
   with
   | Error m ->
     check Alcotest.bool "error names the limit" true
       (contains_sub ~sub:"128 domains" m)
   | Ok srv ->
     Server.drain srv;
     ignore (Server.wait srv);
     Alcotest.fail "server started past the domain limit");
  check Alcotest.bool "no socket file created" false (Sys.file_exists path)

let test_start_refuses_bad_tick () =
  List.iter
    (fun dt ->
       let path = fresh_sock_path () in
       let cfg = base_cfg (Server.Unix_sock path) in
       (match Server.start { cfg with tick = `Every dt } with
        | Error m ->
          check Alcotest.bool ("error says why: " ^ m) true
            (contains_sub ~sub:"tick" m)
        | Ok srv ->
          Server.drain srv;
          ignore (Server.wait srv);
          (try Sys.remove path with Sys_error _ -> ());
          Alcotest.failf "server started with tick %g" dt);
       check Alcotest.bool
         (Printf.sprintf "no socket file at tick %g" dt)
         false (Sys.file_exists path))
    [ 0.0; -1.0; Float.nan ]

(* Each ring is allocated at full capacity, so [start] takes a
   capacity in 1..65536: outside it the config is refused before the
   listener opens (no socket file is left), and 65536 itself starts. *)
let start_capacity_bounds ~field set () =
  List.iter
    (fun cap ->
       let path = fresh_sock_path () in
       (match Server.start (set (base_cfg (Server.Unix_sock path)) cap) with
        | Error m ->
          check Alcotest.bool ("error names the field: " ^ m) true
            (contains_sub ~sub:field m)
        | Ok srv ->
          Server.drain srv;
          ignore (Server.wait srv);
          (try Sys.remove path with Sys_error _ -> ());
          Alcotest.failf "server started with %s = %d" field cap);
       check Alcotest.bool
         (Printf.sprintf "no socket file at %s = %d" field cap)
         false (Sys.file_exists path))
    [ 0; 65537 ];
  let path = fresh_sock_path () in
  match Server.start (set (base_cfg (Server.Unix_sock path)) 65536) with
  | Error m -> Alcotest.failf "%s = 65536 refused: %s" field m
  | Ok srv ->
    Server.drain srv;
    ignore (Server.wait srv);
    check Alcotest.bool "socket path removed at drain" false
      (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          prop_client_roundtrip;
          prop_server_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_protocol_rejects;
          Alcotest.test_case "terminal classification" `Quick
            test_terminal_classification;
        ] );
      ("lineio", [ prop_framing_chunks ]);
      ( "chan",
        [
          Alcotest.test_case "fifo and bound" `Quick test_chan_fifo_and_bound;
          Alcotest.test_case "spsc fifo and bound" `Quick
            test_chan_spsc_fifo_and_bound;
          prop_chan_like_bounded_queue;
          Alcotest.test_case "spsc across two domains" `Quick
            test_chan_spsc_two_domains;
        ] );
      ( "addr",
        [ Alcotest.test_case "parse" `Quick test_addr_of_string ] );
      ( "e2e",
        [
          Alcotest.test_case "I/O counters match the client" `Quick
            test_e2e_io_counters_match_client;
          Alcotest.test_case "exactly one terminal" `Quick
            test_e2e_exactly_one_terminal;
          Alcotest.test_case "replay deterministic" `Quick
            test_e2e_replay_deterministic;
          Alcotest.test_case "domain-count invariant" `Quick
            test_e2e_domains_invariant;
          Alcotest.test_case "kernel == rebuild through the server" `Quick
            test_e2e_kernel_equals_rebuild;
          Alcotest.test_case "shard routes every terminal past ring growth"
            `Quick test_shard_ring_growth;
          Alcotest.test_case "codec trace replays identically" `Quick
            test_e2e_codec_replay_equals_original;
          Alcotest.test_case "interval ticker" `Quick test_e2e_interval_tick;
          Alcotest.test_case "overload rejects explicitly" `Quick
            test_e2e_overload_rejects;
          Alcotest.test_case "closed loop" `Quick test_e2e_closed_loop;
          Alcotest.test_case "client failure isolated" `Quick
            test_e2e_client_failure_isolated;
          Alcotest.test_case "draining rejects" `Quick
            test_e2e_draining_rejects_new_submissions;
          Alcotest.test_case "batched replay byte-identical" `Quick
            test_e2e_batched_replay_identical;
          Alcotest.test_case "outbox overflow drops no reply" `Quick
            test_e2e_outbox_overflow_no_reply_dropped;
          Alcotest.test_case "shards decide as cut instances" `Quick
            test_e2e_shards_are_cut_instances;
          Alcotest.test_case "truncated alternatives counted" `Quick
            test_e2e_truncation_counted;
          Alcotest.test_case "shard step allocation per request" `Quick
            test_shard_step_words;
          Alcotest.test_case "descriptor past FD_SETSIZE refused" `Quick
            test_e2e_descriptor_limit;
          Alcotest.test_case "line over max_line rejected" `Quick
            test_e2e_line_too_long;
          Alcotest.test_case "oversize batch rejected whole" `Quick
            test_e2e_oversize_batch_rejected;
        ] );
      ( "start",
        [
          Alcotest.test_case "bad hostname is a clean error" `Quick
            test_start_bad_hostname;
          Alcotest.test_case "refuses non-socket path" `Quick
            test_start_refuses_non_socket_path;
          Alcotest.test_case "refuses workers past the domain limit" `Quick
            test_start_refuses_too_many_domains;
          Alcotest.test_case "refuses a non-positive tick" `Quick
            test_start_refuses_bad_tick;
          Alcotest.test_case "refuses a listener past FD_SETSIZE" `Quick
            test_start_refuses_high_listener;
          Alcotest.test_case "queue capacity in 1..65536" `Quick
            (start_capacity_bounds ~field:"queue_capacity" (fun cfg c ->
                 { cfg with Server.queue_capacity = c }));
          Alcotest.test_case "outbox capacity in 1..65536" `Quick
            (start_capacity_bounds ~field:"outbox_capacity" (fun cfg c ->
                 { cfg with Server.outbox_capacity = c }));
        ] );
    ]
