(* The reqsched scheduling server.

   One I/O domain owns the listener and every client socket (nonblocking,
   select-driven): it frames lines, parses messages, applies admission
   control and routes accepted requests to shard inboxes — a batch line
   becomes one grouped push per target shard.  Worker domains
   (Worker.run) each drive a contiguous slice of shards, stepping the
   engines and pushing responses into per-shard outbox rings; the
   I/O domain merges and flushes all of them on every loop iteration, so
   shards never contend with each other on the reply path.  Client
   failures (EPIPE,
   ECONNRESET, abrupt EOF with requests in flight) are strictly an I/O
   domain affair: the connection is closed and counted, the shards never
   notice.

   Shutdown: [drain] (wired to SIGINT/SIGTERM by the CLI) closes the
   listener, makes every new submission an explicit 'draining' reject,
   and lets the shards serve what is already admitted to its deadline;
   when the last shard exits the I/O domain reads the lines already
   waiting on open connections, flushes remaining responses, merges all
   metric registries and publishes the final snapshot. *)

type addr = Tcp of string * int | Unix_sock of string

let addr_to_string = function
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
  | Unix_sock path -> "unix:" ^ path

let addr_of_string s =
  let err () =
    Error (Printf.sprintf "malformed address %S (want tcp:HOST:PORT or unix:PATH)" s)
  in
  match String.index_opt s ':' with
  | None -> err ()
  | Some i ->
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match scheme with
     | "unix" when rest <> "" -> Ok (Unix_sock rest)
     | "tcp" ->
       (match String.rindex_opt rest ':' with
        | Some j when j < String.length rest - 1 ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          (match int_of_string_opt port with
           | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
           | _ -> err ())
        | _ -> err ())
     | _ -> err ())

type config = {
  addr : addr;
  n_resources : int;
  d : int;
  shards : int;
  domains : int;        (* worker domains; <= 0 means one per shard *)
  strategy : shard:int -> metrics:Obs.Metrics.t -> Sched.Strategy.factory;
  tick : [ `Every of float | `Manual ];
  queue_capacity : int;
  max_batch : int;      (* longest batch line accepted *)
  outbox_capacity : int; (* per-shard reply ring size *)
  read_timeout : float; (* seconds; <= 0 disables *)
  name : string;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  shards : Shard.t array;
  stride : int;
  outboxes : (int * Protocol.server_msg) Chan.t array; (* one per shard *)
  draining : bool Atomic.t;
  tick_target : int Atomic.t;
  metrics : Obs.Metrics.t option;
  io_m : Obs.Metrics.t;
  finished : bool Atomic.t;
  final : Obs.Metrics.snapshot option Atomic.t;
  mutable domains : unit Domain.t list;
  mutable joined : bool;
}

(* ------------------------------------------------------------------ *)
(* sockets *)

let resolve_host host = Resolve.host ~listen:true host

(* Reclaim a unix-socket path only when the existing file really is a
   socket (a stale leftover from a previous run); anything else at that
   path is someone else's data and replacing it would destroy it. *)
let reclaim_socket_path path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    (try
       Unix.unlink path;
       Ok ()
     with Unix.Unix_error (e, _, _) ->
       Error
         (Printf.sprintf "cannot remove stale socket %s: %s" path
            (Unix.error_message e)))
  | { Unix.st_kind = _; _ } ->
    Error
      (Printf.sprintf "refusing to replace %s: existing file is not a socket"
         path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot stat %s: %s" path (Unix.error_message e))

let open_listener addr =
  let ( let* ) = Result.bind in
  let listen_on fd sockaddr =
    match
      Unix.bind fd sockaddr;
      Unix.listen fd 64;
      Unix.set_nonblock fd
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, arg) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s (%s)" (Unix.error_message e) arg)
  in
  let res =
    match addr with
    | Unix_sock path ->
      let* () = reclaim_socket_path path in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      listen_on fd (Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let* ip = resolve_host host in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      listen_on fd (Unix.ADDR_INET (ip, port))
  in
  Result.map_error
    (fun e ->
       Printf.sprintf "cannot listen on %s: %s" (addr_to_string addr) e)
    res

(* ------------------------------------------------------------------ *)
(* the I/O domain *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  inq : Buffer.t;
  outq : Buffer.t;
  mutable greeted : bool;
  mutable inflight : int; (* admitted, terminal response still pending *)
  mutable last_read : float;
  mutable closing : bool; (* close once outq is flushed *)
  mutable closed : bool;
}

let max_line = 65536

(* the first resource outside [0, n), if any *)
let rec out_of_range n = function
  | [] -> None
  | a :: rest -> if a < 0 || a >= n then Some a else out_of_range n rest

(* [Unix.select] takes descriptors below FD_SETSIZE only (1024 on
   Linux; a [Unix.file_descr] is the descriptor number there) and fails
   with EINVAL on a larger one. *)
let fd_setsize = 1024
let selectable (fd : Unix.file_descr) = (Obj.magic fd : int) < fd_setsize

let io_loop t =
  let m = t.io_m in
  (* Open connections by id (reply routing) and by descriptor (select
     results).  A closed connection leaves [by_fd] at once and [conns]
     at the end of the loop iteration ([reap]), so the loops over
     [conns] never see the table change under them. *)
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 32 in
  let by_fd : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 32 in
  let dead = ref [] in
  let next_cid = ref 0 in
  let listener_open = ref true in
  (* (cid, target round count), targets ascending: one per tick *)
  let pending_acks = Queue.create () in
  let scratch = Bytes.create 4096 in
  let queue_msg conn msg =
    Protocol.render_server_into conn.outq msg;
    Buffer.add_char conn.outq '\n';
    Obs.Metrics.incr m "serve.responses_out"
  in
  let close_conn ?(error = false) conn =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove by_fd conn.fd;
      dead := conn.cid :: !dead;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      if error || conn.inflight > 0 then
        Obs.Metrics.incr m "serve.client_errors"
    end
  in
  let reap () =
    List.iter (Hashtbl.remove conns) !dead;
    dead := []
  in
  let shard_index_of_resource r = r / t.stride in
  let reject conn ~tag reason counter =
    Obs.Metrics.incr m counter;
    queue_msg conn (Protocol.Rejected { tag; reason })
  in
  (* [None] when well-formed; [Some detail] says what is wrong *)
  let check_valid ({ Protocol.alternatives; deadline; _ } : Protocol.request)
      =
    match alternatives with
    | [] -> Some "empty alternative list"
    | _ ->
      (match out_of_range t.cfg.n_resources alternatives with
       | Some a ->
         Some
           (Printf.sprintf "resource %d out of range (n=%d)" a
              t.cfg.n_resources)
       | None ->
         if deadline < 1 || deadline > t.cfg.d then
           Some
             (Printf.sprintf "deadline %d outside 1..%d" deadline t.cfg.d)
         else None)
  in
  let admit conn ({ Protocol.tag; alternatives; deadline } as req :
                    Protocol.request) =
    Obs.Metrics.incr m "serve.requests";
    if Atomic.get t.draining then
      reject conn ~tag Protocol.Draining "serve.rejected.draining"
    else
      match check_valid req with
      | Some detail ->
        reject conn ~tag (Protocol.Invalid detail) "serve.rejected.invalid"
      | None ->
        let shard = t.shards.(shard_index_of_resource (List.hd alternatives)) in
        if
          Shard.try_admit shard
            { Shard.conn = conn.cid; tag; alternatives; deadline }
        then begin
          conn.inflight <- conn.inflight + 1;
          Obs.Metrics.incr m "serve.admitted"
        end
        else reject conn ~tag Protocol.Overload "serve.rejected.overload"
  in
  (* A batch line: validate every entry, then push each shard's share
     with one grouped [try_admit_many] — one lock acquisition per shard
     touched instead of one per request.  Submission order is preserved
     within each shard, so a batched run makes the same decisions as the
     same requests submitted line by line. *)
  let groups = Array.make (Array.length t.shards) [||]
  and group_len = Array.make (Array.length t.shards) 0 in
  let admit_batch conn reqs =
    let nreqs = List.length reqs in
    Obs.Metrics.incr ~by:nreqs m "serve.requests";
    Obs.Metrics.incr m "serve.batches_in";
    if Atomic.get t.draining then
      List.iter
        (fun (r : Protocol.request) ->
           reject conn ~tag:r.tag Protocol.Draining "serve.rejected.draining")
        reqs
    else if nreqs > t.cfg.max_batch then
      let detail =
        Printf.sprintf "batch of %d exceeds server limit %d" nreqs
          t.cfg.max_batch
      in
      List.iter
        (fun (r : Protocol.request) ->
           reject conn ~tag:r.tag (Protocol.Invalid detail)
             "serve.rejected.invalid")
        reqs
    else begin
      (* each shard's tasks in submission order, in reused arrays *)
      List.iter
        (fun ({ Protocol.tag; alternatives; deadline } as req :
                Protocol.request) ->
           match check_valid req with
           | Some detail ->
             reject conn ~tag (Protocol.Invalid detail)
               "serve.rejected.invalid"
           | None ->
             let i = shard_index_of_resource (List.hd alternatives) in
             let task =
               { Shard.conn = conn.cid; tag; alternatives; deadline }
             in
             let len = group_len.(i) in
             if len = Array.length groups.(i) then begin
               let grown = Array.make (max 16 (2 * len)) task in
               Array.blit groups.(i) 0 grown 0 len;
               groups.(i) <- grown
             end;
             groups.(i).(len) <- task;
             group_len.(i) <- len + 1)
        reqs;
      Array.iteri
        (fun i len ->
           if len > 0 then begin
             group_len.(i) <- 0;
             let tasks = groups.(i) in
             let accepted =
               Shard.try_admit_many t.shards.(i) tasks ~off:0 ~len
             in
             conn.inflight <- conn.inflight + accepted;
             Obs.Metrics.incr ~by:accepted m "serve.admitted";
             for k = accepted to len - 1 do
               reject conn ~tag:tasks.(k).Shard.tag Protocol.Overload
                 "serve.rejected.overload"
             done
           end)
        group_len
    end
  in
  let protocol_error conn detail =
    Obs.Metrics.incr m "serve.protocol_errors";
    queue_msg conn (Protocol.Error { message = detail });
    conn.closing <- true
  in
  let handle_line conn line =
    Obs.Metrics.incr m "serve.lines_in";
    match Protocol.parse_client line with
    | Error detail -> protocol_error conn detail
    | Ok (Protocol.Hello _) ->
      if conn.greeted then protocol_error conn "duplicate hello"
      else begin
        conn.greeted <- true;
        queue_msg conn (Protocol.Welcome { server = t.cfg.name })
      end
    | Ok _ when not conn.greeted -> protocol_error conn "expected hello first"
    | Ok (Protocol.Submit req) -> admit conn req
    | Ok (Protocol.Batch reqs) -> admit_batch conn reqs
    | Ok Protocol.Tick ->
      (match t.cfg.tick with
       | `Manual ->
         let target = 1 + Atomic.fetch_and_add t.tick_target 1 in
         Queue.push (conn.cid, target) pending_acks
       | `Every _ ->
         queue_msg conn
           (Protocol.Error
              { message = "server ticks on its own clock; tick ignored" }))
    | Ok Protocol.Bye -> conn.closing <- true
  in
  (* A line longer than [max_line] bytes — complete, or the partial
     one held — is a protocol error: the rest of the read is dropped
     and the connection closes once the error is flushed. *)
  let too_long conn =
    Buffer.reset conn.inq;
    protocol_error conn "line too long"
  in
  let rec handle_lines conn = function
    | [] -> if Buffer.length conn.inq > max_line then too_long conn
    | line :: _ when String.length line > max_line -> too_long conn
    | line :: rest ->
      handle_line conn line;
      handle_lines conn rest
  in
  let handle_readable conn =
    if not conn.closed then
      match Unix.read conn.fd scratch 0 (Bytes.length scratch) with
      | 0 -> close_conn conn (* EOF; error iff requests stranded *)
      | n ->
        conn.last_read <- Unix.gettimeofday ();
        Buffer.add_subbytes conn.inq scratch 0 n;
        handle_lines conn (Lineio.extract_lines ~fresh:n conn.inq)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn ~error:true conn
  in
  let handle_writable conn =
    if (not conn.closed) && Buffer.length conn.outq > 0 then begin
      let s = Buffer.contents conn.outq in
      match Unix.write_substring conn.fd s 0 (String.length s) with
      | n ->
        Buffer.clear conn.outq;
        if n < String.length s then
          Buffer.add_substring conn.outq s n (String.length s - n)
        else if conn.closing then close_conn conn
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn ~error:true conn
    end
    else if conn.closing && Buffer.length conn.outq = 0 then close_conn conn
  in
  (* Merge-flush every shard's outbox into the connection buffers; the
     reusable drain target means steady-state routing allocates only the
     rendered lines. *)
  let resp_buf : (int * Protocol.server_msg) array ref = ref [||] in
  let route_responses () =
    Array.iter
      (fun outbox ->
         let count = Chan.drain_into outbox resp_buf in
         for i = 0 to count - 1 do
           let cid, msg = !resp_buf.(i) in
           match Hashtbl.find_opt conns cid with
           | Some conn when not conn.closed ->
             if Protocol.is_terminal msg then
               conn.inflight <- max 0 (conn.inflight - 1);
             queue_msg conn msg
           | Some _ | None -> Obs.Metrics.incr m "serve.responses_dropped"
         done)
      t.outboxes
  in
  (* Targets ascend in queue order, so the acks whose round every shard
     has stepped are a prefix. *)
  let send_ready_acks () =
    if not (Queue.is_empty pending_acks) then begin
      let min_stepped =
        Array.fold_left
          (fun acc s -> min acc (Shard.stepped s))
          max_int t.shards
      in
      while
        (not (Queue.is_empty pending_acks))
        && snd (Queue.peek pending_acks) <= min_stepped
      do
        let cid, target = Queue.pop pending_acks in
        match Hashtbl.find_opt conns cid with
        | Some conn when not conn.closed ->
          queue_msg conn (Protocol.Round { round = target - 1 })
        | Some _ | None -> ()
      done
    end
  in
  let scan_timeouts now =
    if t.cfg.read_timeout > 0.0 then
      Hashtbl.iter
        (fun _ conn ->
           if
             (not conn.closed) && (not conn.closing)
             && now -. conn.last_read > t.cfg.read_timeout
           then begin
             Obs.Metrics.incr m "serve.read_timeouts";
             close_conn ~error:(conn.inflight > 0) conn
           end)
        conns
  in
  let all_shards_exited () = Array.for_all Shard.has_exited t.shards in
  let outboxes_empty () =
    Array.for_all (fun o -> Chan.length o = 0) t.outboxes
  in
  (* main loop: run until every shard has drained and exited *)
  while not (all_shards_exited () && outboxes_empty ()) do
    if Atomic.get t.draining && !listener_open then begin
      listener_open := false;
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
    end;
    let conn_fds =
      Hashtbl.fold (fun _ c acc -> if c.closed then acc else c.fd :: acc)
        conns []
    in
    let reads = if !listener_open then t.listen_fd :: conn_fds else conn_fds in
    let writes =
      Hashtbl.fold
        (fun _ c acc ->
           if (not c.closed) && Buffer.length c.outq > 0 then c.fd :: acc
           else acc)
        conns []
    in
    (* Adaptive pacing: while a tick ack is owed or replies are sitting
       in an outbox, the next wake-up depends on shard progress — which
       select cannot see — so poll tightly.  A non-empty inbox alone is
       NOT a reason to poll: in manual mode the workers won't touch it
       until the next wire tick, and spinning on it just steals cycles
       from the submitting client.  Otherwise sleep: half a tick in
       interval mode (clamped to the poll floor and the 5 ms ceiling)
       so replies lag a round by at most half a round, a flat 5 ms in
       manual mode, and let readable fds wake us early. *)
    let timeout =
      if (not (Queue.is_empty pending_acks)) || not (outboxes_empty ()) then
        0.00005
      else
        match t.cfg.tick with
        | `Every dt -> Float.max 0.00005 (Float.min 0.005 (dt /. 2.0))
        | `Manual -> 0.005
    in
    let rds, wrs =
      match Unix.select reads writes [] timeout with
      | rds, wrs, _ -> (rds, wrs)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [])
    in
    if !listener_open && List.memq t.listen_fd rds then begin
      let accepting = ref true in
      while !accepting do
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ when not (selectable fd) ->
          (* select cannot watch it: refuse it here, in one blocking
             write, rather than let select fail for every connection *)
          Obs.Metrics.incr m "serve.rejected.fd_limit";
          (try
             let refusal =
               Protocol.Error { message = "server descriptor limit reached" }
             in
             Lineio.write_all fd (Protocol.render_server refusal ^ "\n")
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        | fd, _ ->
          Unix.set_nonblock fd;
          incr next_cid;
          let conn =
            {
              cid = !next_cid;
              fd;
              inq = Buffer.create 256;
              outq = Buffer.create 256;
              greeted = false;
              inflight = 0;
              last_read = Unix.gettimeofday ();
              closing = false;
              closed = false;
            }
          in
          Hashtbl.replace conns conn.cid conn;
          Hashtbl.replace by_fd fd conn;
          Obs.Metrics.incr m "serve.connections"
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          accepting := false
        | exception Unix.Unix_error _ -> accepting := false
      done
    end;
    let conn_of_fd fd = Hashtbl.find_opt by_fd fd in
    List.iter
      (fun fd ->
         if fd != t.listen_fd then
           Option.iter handle_readable (conn_of_fd fd))
      rds;
    route_responses ();
    send_ready_acks ();
    List.iter (fun fd -> Option.iter handle_writable (conn_of_fd fd)) wrs;
    (* flush conns that became writable-with-data outside the select *)
    Hashtbl.iter
      (fun _ c ->
         if (not c.closed) && (Buffer.length c.outq > 0 || c.closing) then
           handle_writable c)
      conns;
    scan_timeouts (Unix.gettimeofday ());
    reap ()
  done;
  (* shards are gone.  A client's last lines (its bye, typically) may
     already sit in a socket that select has not reported yet: read
     what is waiting on every open connection once, then deliver what
     is left and tear down *)
  Hashtbl.iter (fun _ c -> handle_readable c) conns;
  reap ();
  route_responses ();
  send_ready_acks ();
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec flush () =
    let pending =
      Hashtbl.fold
        (fun _ c acc ->
           if (not c.closed) && Buffer.length c.outq > 0 then c :: acc
           else acc)
        conns []
    in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (match
         Unix.select [] (List.map (fun c -> c.fd) pending) [] 0.05
       with
       | _, wrs, _ ->
         List.iter
           (fun c -> if List.memq c.fd wrs then handle_writable c)
           pending
       | exception Unix.Unix_error _ -> ());
      flush ()
    end
  in
  flush ();
  Hashtbl.iter (fun _ c -> close_conn c) conns;
  reap ();
  if !listener_open then
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.cfg.addr with
   | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | Tcp _ -> ());
  let final =
    Obs.Metrics.merge_all
      (Obs.Metrics.snapshot m
       :: Array.to_list (Array.map Shard.metrics_snapshot t.shards))
  in
  Atomic.set t.final (Some final);
  (match t.metrics with
   | Some main -> Obs.Metrics.merge_into main final
   | None -> ());
  Atomic.set t.finished true

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let start ?metrics cfg =
  if cfg.n_resources < 1 then Error "n_resources must be >= 1"
  else if cfg.d < 1 then Error "d must be >= 1"
  else if cfg.queue_capacity < 1 then Error "queue_capacity must be >= 1"
  else if cfg.max_batch < 1 then Error "max_batch must be >= 1"
  else if cfg.outbox_capacity < 1 then Error "outbox_capacity must be >= 1"
  else if
    match cfg.tick with
    | `Every dt -> not (dt > 0.0 && Float.is_finite dt)
    | `Manual -> false
  then Error "tick interval must be finite and > 0"
  else begin
    let metrics = Obs.Metrics.resolve metrics in
    let shards_n = max 1 (min cfg.shards cfg.n_resources) in
    let stride = (cfg.n_resources + shards_n - 1) / shards_n in
    (* the last slice may be short; recompute the real shard count *)
    let shards_n = (cfg.n_resources + stride - 1) / stride in
    (* worker domains: contiguous shard slices, so a worker's shards
       cover a contiguous resource range too.  domains <= 0 keeps the
       old one-domain-per-shard behaviour. *)
    let workers_n =
      if cfg.domains <= 0 then shards_n
      else max 1 (min cfg.domains shards_n)
    in
    let wstride = (shards_n + workers_n - 1) / workers_n in
    let workers_n = (shards_n + wstride - 1) / wstride in
    (* the workers, the I/O domain and this one must fit the runtime's
       domain limit, checked before anything is opened or spawned *)
    if workers_n + 2 > Prelude.Parmap.max_domains then
      Error
        (Printf.sprintf
           "%d worker domains plus the I/O and main domains exceed the \
            runtime's limit of %d domains; use at most %d workers (fewer \
            shards or domains)"
           workers_n Prelude.Parmap.max_domains
           (Prelude.Parmap.max_domains - 2))
    else
    match open_listener cfg.addr with
    | Error _ as e -> e
    | Ok listen_fd when not (selectable listen_fd) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match cfg.addr with
       | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
       | Tcp _ -> ());
      Error
        (Printf.sprintf
           "the listening socket got a descriptor past select's limit of \
            %d: too many descriptors open"
           fd_setsize)
    | Ok listen_fd ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (* each outbox has exactly one producer (the owning worker) and
         one consumer (the I/O domain): SPSC unless the capacity makes
         eager allocation unreasonable *)
      let dummy_reply = (-1, Protocol.Error { message = "" }) in
      let outboxes =
        Array.init shards_n (fun _ ->
            if cfg.outbox_capacity <= 65536 then
              Chan.create_spsc ~capacity:cfg.outbox_capacity
                ~dummy:dummy_reply
            else Chan.create ~capacity:cfg.outbox_capacity)
      in
      let shards =
        Array.init shards_n (fun i ->
            (* the shard's private registry is also handed to the
               strategy factory: strategy-level counters ride the same
               merge as the serve ones *)
            let metrics = Obs.Metrics.create () in
            Shard.create ~metrics ~index:i ~lo:(i * stride)
              ~hi:(min cfg.n_resources ((i + 1) * stride))
              ~d:cfg.d ~queue_capacity:cfg.queue_capacity
              ~strategy:(cfg.strategy ~shard:i ~metrics)
              ~outbox:outboxes.(i) ())
      in
      let t =
        {
          cfg;
          listen_fd;
          shards;
          stride;
          outboxes;
          draining = Atomic.make false;
          tick_target = Atomic.make 0;
          metrics;
          io_m = Obs.Metrics.create ();
          finished = Atomic.make false;
          final = Atomic.make None;
          domains = [];
          joined = false;
        }
      in
      Obs.Metrics.set t.io_m "serve.shards" (float_of_int shards_n);
      Obs.Metrics.set t.io_m "serve.domains" (float_of_int workers_n);
      let tick_source =
        match cfg.tick with
        | `Every dt -> Worker.Every dt
        | `Manual -> Worker.Manual t.tick_target
      in
      let worker_domains =
        List.init workers_n (fun w ->
            let lo = w * wstride in
            let hi = min shards_n (lo + wstride) in
            let slice = Array.sub shards lo (hi - lo) in
            Domain.spawn (fun () ->
                Worker.run ~shards:slice ~tick:tick_source
                  ~draining:t.draining))
      in
      let io_domain = Domain.spawn (fun () -> io_loop t) in
      t.domains <- io_domain :: worker_domains;
      Ok t
  end

let drain t = Atomic.set t.draining true
let finished t = Atomic.get t.finished
let n_shards t = Array.length t.shards
let n_domains t = max 0 (List.length t.domains - 1) (* minus the I/O domain *)

let wait t =
  if not t.joined then begin
    t.joined <- true;
    List.iter Domain.join t.domains
  end;
  match Atomic.get t.final with
  | Some snap -> snap
  | None -> [] (* unreachable: the I/O domain publishes before exiting *)
