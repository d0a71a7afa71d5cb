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
  mutable last_read : Obs.Span.span; (* monotonic *)
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

(* The I/O domain's counters, bound once: an update is one atomic add *)
type io_counters = {
  lines_in : Obs.Metrics.counter;
  requests : Obs.Metrics.counter;
  admitted : Obs.Metrics.counter;
  batches_in : Obs.Metrics.counter;
  responses_out : Obs.Metrics.counter;
  responses_dropped : Obs.Metrics.counter;
  protocol_errors : Obs.Metrics.counter;
  client_errors : Obs.Metrics.counter;
  connections : Obs.Metrics.counter;
  read_timeouts : Obs.Metrics.counter;
  rejected_fd_limit : Obs.Metrics.counter;
  rejected_draining : Obs.Metrics.counter;
  rejected_invalid : Obs.Metrics.counter;
  rejected_overload : Obs.Metrics.counter;
}

let io_counters m =
  let c name = Obs.Metrics.register_counter m ("serve." ^ name) in
  {
    lines_in = c "lines_in";
    requests = c "requests";
    admitted = c "admitted";
    batches_in = c "batches_in";
    responses_out = c "responses_out";
    responses_dropped = c "responses_dropped";
    protocol_errors = c "protocol_errors";
    client_errors = c "client_errors";
    connections = c "connections";
    read_timeouts = c "read_timeouts";
    rejected_fd_limit = c "rejected.fd_limit";
    rejected_draining = c "rejected.draining";
    rejected_invalid = c "rejected.invalid";
    rejected_overload = c "rejected.overload";
  }

let io_loop t =
  let m = io_counters t.io_m in
  let bump c = Obs.Metrics.add c 1 in
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
    bump m.responses_out
  in
  let close_conn ?(error = false) conn =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove by_fd conn.fd;
      dead := conn.cid :: !dead;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      if error || conn.inflight > 0 then
        bump m.client_errors
    end
  in
  let reap () =
    List.iter (Hashtbl.remove conns) !dead;
    dead := []
  in
  let shard_index_of_resource r = r / t.stride in
  let reject conn ~tag reason counter =
    bump counter;
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
  (* Admission.  Every request, from a [req] line or a [batch] entry,
     goes through [stage]: an invalid one is rejected at once, a valid
     one is appended to the group of the shard its first alternative
     lies in.  [flush] pushes a shard's group with one grouped
     [try_admit_many] and rejects the suffix that did not fit.  A [req]
     line flushes its one shard at once; a batch line flushes every
     shard after staging all its entries.  Submission order is
     preserved within each shard, so a batched run makes the same
     decisions as the same requests submitted line by line. *)
  let groups = Array.make (Array.length t.shards) [||]
  and group_len = Array.make (Array.length t.shards) 0 in
  (* the index of the shard [req] was staged for, or -1 if rejected *)
  let stage conn ({ Protocol.tag; alternatives; deadline } as req :
                    Protocol.request) =
    match check_valid req with
    | Some detail ->
      reject conn ~tag (Protocol.Invalid detail) m.rejected_invalid;
      -1
    | None ->
      let i = shard_index_of_resource (List.hd alternatives) in
      let task = { Shard.conn = conn.cid; tag; alternatives; deadline } in
      let len = group_len.(i) in
      if len = Array.length groups.(i) then begin
        let grown = Array.make (max 16 (2 * len)) task in
        Array.blit groups.(i) 0 grown 0 len;
        groups.(i) <- grown
      end;
      groups.(i).(len) <- task;
      group_len.(i) <- len + 1;
      i
  in
  let flush conn i =
    let len = group_len.(i) in
    if len > 0 then begin
      group_len.(i) <- 0;
      let tasks = groups.(i) in
      let accepted = Shard.try_admit_many t.shards.(i) tasks ~off:0 ~len in
      conn.inflight <- conn.inflight + accepted;
      Obs.Metrics.add m.admitted accepted;
      for k = accepted to len - 1 do
        reject conn ~tag:tasks.(k).Shard.tag Protocol.Overload
          m.rejected_overload
      done
    end
  in
  let rec stage_all conn = function
    | [] -> ()
    | req :: rest ->
      ignore (stage conn req : int);
      stage_all conn rest
  in
  let admit_batch conn reqs =
    let nreqs = List.length reqs in
    Obs.Metrics.add m.requests nreqs;
    bump m.batches_in;
    if Atomic.get t.draining then
      List.iter
        (fun (r : Protocol.request) ->
           reject conn ~tag:r.tag Protocol.Draining m.rejected_draining)
        reqs
    else if nreqs > t.cfg.max_batch then
      let detail =
        Printf.sprintf "batch of %d exceeds server limit %d" nreqs
          t.cfg.max_batch
      in
      List.iter
        (fun (r : Protocol.request) ->
           reject conn ~tag:r.tag (Protocol.Invalid detail)
             m.rejected_invalid)
        reqs
    else begin
      stage_all conn reqs;
      for i = 0 to Array.length group_len - 1 do
        flush conn i
      done
    end
  in
  let protocol_error conn detail =
    bump m.protocol_errors;
    queue_msg conn (Protocol.Error { message = detail });
    conn.closing <- true
  in
  let handle_line conn line =
    bump m.lines_in;
    match Protocol.parse_client line with
    | Error detail -> protocol_error conn detail
    | Ok (Protocol.Hello _) ->
      if conn.greeted then protocol_error conn "duplicate hello"
      else begin
        conn.greeted <- true;
        queue_msg conn (Protocol.Welcome { server = t.cfg.name })
      end
    | Ok _ when not conn.greeted -> protocol_error conn "expected hello first"
    | Ok (Protocol.Submit req) ->
      bump m.requests;
      if Atomic.get t.draining then
        reject conn ~tag:req.tag Protocol.Draining m.rejected_draining
      else
        let i = stage conn req in
        if i >= 0 then flush conn i
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
        conn.last_read <- Obs.Span.start ();
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
           | Some _ | None -> bump m.responses_dropped
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
             && Obs.Span.diff conn.last_read now > t.cfg.read_timeout
           then begin
             bump m.read_timeouts;
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
          bump m.rejected_fd_limit;
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
              last_read = Obs.Span.start ();
              closing = false;
              closed = false;
            }
          in
          Hashtbl.replace conns conn.cid conn;
          Hashtbl.replace by_fd fd conn;
          bump m.connections
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
    scan_timeouts (Obs.Span.start ());
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
  let flush_start = Obs.Span.start () in
  let rec flush () =
    let pending =
      Hashtbl.fold
        (fun _ c acc ->
           if (not c.closed) && Buffer.length c.outq > 0 then c :: acc
           else acc)
        conns []
    in
    if pending <> [] && Obs.Span.elapsed flush_start < 2.0 then begin
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
      (Obs.Metrics.snapshot t.io_m
       :: Array.to_list (Array.map Shard.metrics_snapshot t.shards))
  in
  Atomic.set t.final (Some final);
  (match t.metrics with
   | Some main -> Obs.Metrics.merge_into main final
   | None -> ());
  Atomic.set t.finished true

(* ------------------------------------------------------------------ *)
(* lifecycle *)

(* Every queue is an SPSC ring allocated at full capacity *)
let max_capacity = 65536

let start ?metrics cfg =
  if cfg.n_resources < 1 then Error "n_resources must be >= 1"
  else if cfg.d < 1 then Error "d must be >= 1"
  else if cfg.queue_capacity < 1 || cfg.queue_capacity > max_capacity then
    Error (Printf.sprintf "queue_capacity must be in 1..%d" max_capacity)
  else if cfg.max_batch < 1 then Error "max_batch must be >= 1"
  else if cfg.outbox_capacity < 1 || cfg.outbox_capacity > max_capacity then
    Error (Printf.sprintf "outbox_capacity must be in 1..%d" max_capacity)
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
         one consumer (the I/O domain) *)
      let dummy_reply = (-1, Protocol.Error { message = "" }) in
      let outboxes =
        Array.init shards_n (fun _ ->
            Chan.create_spsc ~capacity:cfg.outbox_capacity ~dummy:dummy_reply)
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
