(* Protocol client and load generator.

   The connection layer is deliberately simple: one blocking socket,
   buffered line reads with a select-based timeout.  The generators
   drive it single-threaded — responses are drained opportunistically
   between sends, so no reader thread is needed. *)

module Stats = Prelude.Stats

let ( let* ) = Result.bind

type t = {
  fd : Unix.file_descr;
  inq : Buffer.t;
  mutable lines : string list; (* parsed-out, not yet consumed *)
  mutable closed : bool;
}

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send t msg =
  match Lineio.write_all t.fd (Protocol.render_client msg ^ "\n") with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "send failed: %s" (Unix.error_message e))

(* Next server message.  [timeout] bounds the whole wait; [Ok None]
   means it elapsed (not an error — pacing loops poll). *)
let recv_opt ?(timeout = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let scratch = Bytes.create 4096 in
  let rec next () =
    match t.lines with
    | line :: rest ->
      t.lines <- rest;
      (match Protocol.parse_server line with
       | Ok msg -> Ok (Some msg)
       | Error m -> Error (Printf.sprintf "bad server message: %s" m))
    | [] ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Ok None
      else begin
        match Unix.select [ t.fd ] [] [] (Float.min remaining 0.25) with
        | [], _, _ -> next ()
        | _ ->
          (match Unix.read t.fd scratch 0 (Bytes.length scratch) with
           | 0 -> Error "connection closed by server"
           | n ->
             Buffer.add_subbytes t.inq scratch 0 n;
             t.lines <- t.lines @ Lineio.extract_lines ~fresh:n t.inq;
             next ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
           | exception Unix.Unix_error (e, _, _) ->
             Error (Printf.sprintf "recv failed: %s" (Unix.error_message e)))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
      end
  in
  next ()

let recv ?(timeout = 10.0) t =
  match recv_opt ~timeout t with
  | Ok (Some msg) -> Ok msg
  | Ok None -> Error (Printf.sprintf "timed out after %.1fs" timeout)
  | Error _ as e -> e

let resolve_host host = Resolve.host ~listen:false host

let connect addr ~client =
  let sock () =
    match (addr : Server.addr) with
    | Server.Unix_sock path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Ok fd
    | Server.Tcp (host, port) ->
      (match resolve_host host with
       | Error _ as e -> e
       | Ok ip ->
         let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.connect fd (Unix.ADDR_INET (ip, port));
         Ok fd)
  in
  match sock () with
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot connect to %s: %s"
         (Server.addr_to_string addr) (Unix.error_message e))
  | Error m ->
    Error
      (Printf.sprintf "cannot connect to %s: %s"
         (Server.addr_to_string addr) m)
  | Ok fd ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let t = { fd; inq = Buffer.create 256; lines = []; closed = false } in
    (match send t (Protocol.Hello { client }) with
     | Error m ->
       close t;
       Error m
     | Ok () ->
       (match recv ~timeout:10.0 t with
        | Ok (Protocol.Welcome _) -> Ok t
        | Ok other ->
          close t;
          Error
            (Printf.sprintf "expected welcome, got %S"
               (Protocol.render_server other))
        | Error m ->
          close t;
          Error m))

(* ------------------------------------------------------------------ *)
(* load generation *)

type outcome =
  | Got_scheduled of { round : int; resource : int }
  | Got_rejected of Protocol.reject_reason
  | Got_expired

type report = {
  submitted : int;
  scheduled : int;
  rejected : int;
  expired : int;
  duration : float;
  rtt : Stats.t;
  rtt_samples : float array;
  decisions : (int * outcome) array;
}

(* Mutable run state shared by the generators. *)
type tracker = {
  outcomes : (int, outcome) Hashtbl.t;
  sent_at : (int, float) Hashtbl.t;
  rtt_acc : Stats.t;
  mutable samples : float list;
  mutable terminals : int;
}

let tracker () =
  {
    outcomes = Hashtbl.create 1024;
    sent_at = Hashtbl.create 1024;
    rtt_acc = Stats.create ();
    samples = [];
    terminals = 0;
  }

(* Returns [true] when the message was a fresh terminal response.
   Duplicate terminals (a protocol violation) are ignored rather than
   double-counted, so "terminals = submitted" stays a sound exit test. *)
let note tr msg =
  match (Protocol.terminal_tag msg : int option) with
  | None -> false
  | Some tag when Hashtbl.mem tr.outcomes tag -> false
  | Some tag ->
    let outcome =
      match msg with
      | Protocol.Scheduled { round; resource; _ } ->
        Got_scheduled { round; resource }
      | Protocol.Rejected { reason; _ } -> Got_rejected reason
      | Protocol.Expired _ -> Got_expired
      | _ -> assert false
    in
    Hashtbl.replace tr.outcomes tag outcome;
    (match Hashtbl.find_opt tr.sent_at tag with
     | Some t0 ->
       let rtt = Unix.gettimeofday () -. t0 in
       Stats.add tr.rtt_acc rtt;
       tr.samples <- rtt :: tr.samples
     | None -> ());
    tr.terminals <- tr.terminals + 1;
    true

let report_of tr ~submitted ~duration =
  let scheduled = ref 0 and rejected = ref 0 and expired = ref 0 in
  Hashtbl.iter
    (fun _ -> function
       | Got_scheduled _ -> incr scheduled
       | Got_rejected _ -> incr rejected
       | Got_expired -> incr expired)
    tr.outcomes;
  let decisions =
    Hashtbl.fold (fun tag o acc -> (tag, o) :: acc) tr.outcomes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> Array.of_list
  in
  {
    submitted;
    scheduled = !scheduled;
    rejected = !rejected;
    expired = !expired;
    duration;
    rtt = Stats.copy tr.rtt_acc;
    rtt_samples = Array.of_list (List.rev tr.samples);
    decisions;
  }

let submit_request conn tr ~tag ~alternatives ~deadline =
  Hashtbl.replace tr.sent_at tag (Unix.gettimeofday ());
  send conn (Protocol.Submit { tag; alternatives; deadline })

(* A singleton goes out as a plain [req] line (byte-compatible with an
   unbatched client); anything longer becomes one [batch] line. *)
let submit_group conn tr reqs =
  match reqs with
  | [] -> Ok ()
  | [ (r : Protocol.request) ] ->
    submit_request conn tr ~tag:r.tag ~alternatives:r.alternatives
      ~deadline:r.deadline
  | _ ->
    let now = Unix.gettimeofday () in
    List.iter
      (fun (r : Protocol.request) -> Hashtbl.replace tr.sent_at r.tag now)
      reqs;
    send conn (Protocol.Batch reqs)

(* Drain responses until [stop] says we are done (or [budget] seconds
   pass, which is an error described by [what]). *)
let drain_until conn tr ~budget ~what ~stop =
  let deadline = Unix.gettimeofday () +. budget in
  let rec go () =
    if stop () then Ok ()
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then
        Error (Printf.sprintf "timed out waiting for %s" (what ()))
      else
        match recv_opt ~timeout:(Float.min remaining 0.5) conn with
        | Error m -> Error m
        | Ok None -> go ()
        | Ok (Some (Protocol.Error { message })) ->
          Error ("server error: " ^ message)
        | Ok (Some msg) ->
          ignore (note tr msg);
          go ()
  in
  go ()

let request_fields (r : Sched.Request.t) =
  (Array.to_list r.Sched.Request.alternatives, r.Sched.Request.deadline)

let open_loop ~addr ~(inst : Sched.Instance.t) ~tick ?(batch = 1)
    ?(client = "load") () =
  if batch < 1 then Error "open_loop: batch must be >= 1"
  else
  match connect addr ~client with
  | Error _ as e -> e
  | Ok conn ->
    let tr = tracker () in
    let total = Sched.Instance.n_requests inst in
    let horizon = inst.Sched.Instance.horizon in
    let t0 = Unix.gettimeofday () in
    let submit_round round =
      (* a round's arrivals go out in submission order, chunked into
         groups of at most [batch] *)
      let arrivals = Sched.Instance.arrivals_at inst round in
      let n = Array.length arrivals in
      let rec go i =
        if i >= n then Ok ()
        else
          let len = min batch (n - i) in
          let reqs =
            List.init len (fun k ->
                let r = arrivals.(i + k) in
                let alternatives, deadline = request_fields r in
                { Protocol.tag = r.Sched.Request.id; alternatives; deadline })
          in
          match submit_group conn tr reqs with
          | Error _ as e -> e
          | Ok () -> go (i + len)
      in
      go 0
    in
    let result =
      let* () =
        match tick with
        | `Manual ->
          (* Lock-step: submit a round's arrivals, tick, wait for the
             round ack (absorbing any terminals that arrive first). *)
          let rec rounds r =
            if r >= horizon then Ok ()
            else
              let* () = submit_round r in
              let* () = send conn Protocol.Tick in
              let rec await () =
                match recv ~timeout:30.0 conn with
                | Error m -> Error m
                | Ok (Protocol.Round { round }) when round >= r -> Ok ()
                | Ok (Protocol.Error { message }) ->
                  Error ("server error: " ^ message)
                | Ok msg ->
                  ignore (note tr msg);
                  await ()
              in
              let* () = await () in
              rounds (r + 1)
          in
          rounds 0
        | `Every dt ->
          (* Paced against the wall clock so client rounds track the
             server ticker; responses are drained while waiting. *)
          let start = Unix.gettimeofday () in
          let rec rounds r =
            if r >= horizon then Ok ()
            else begin
              let at = start +. (float_of_int r *. dt) in
              let rec pace () =
                let remaining = at -. Unix.gettimeofday () in
                if remaining <= 0.0 then Ok ()
                else
                  match recv_opt ~timeout:(Float.min remaining 0.05) conn with
                  | Error m -> Error m
                  | Ok (Some (Protocol.Error { message })) ->
                    Error ("server error: " ^ message)
                  | Ok (Some msg) ->
                    ignore (note tr msg);
                    pace ()
                  | Ok None -> pace ()
              in
              let* () = pace () in
              let* () = submit_round r in
              rounds (r + 1)
            end
          in
          rounds 0
      in
      (* All arrivals are in; every admitted request resolves within d
         more rounds, so just collect until each tag has its terminal. *)
      let* () =
        drain_until conn tr ~budget:30.0
          ~what:(fun () ->
            Printf.sprintf "%d terminal responses (got %d)" total
              tr.terminals)
          ~stop:(fun () -> tr.terminals >= total)
      in
      let* () = send conn Protocol.Bye in
      Ok ()
    in
    let duration = Unix.gettimeofday () -. t0 in
    close conn;
    (match result with
     | Error m -> Error m
     | Ok () ->
       Ok (report_of tr ~submitted:total ~duration))

let closed_loop ~addr ~(inst : Sched.Instance.t) ~users ~total
    ?(batch = 1) ?(client = "load") () =
  if users < 1 then Error "closed_loop: users must be >= 1"
  else if total < 0 then Error "closed_loop: total must be >= 0"
  else if batch < 1 then Error "closed_loop: batch must be >= 1"
  else if Sched.Instance.n_requests inst = 0 && total > 0 then
    Error "closed_loop: the workload instance has no requests"
  else
    match connect addr ~client with
    | Error _ as e -> e
    | Ok conn ->
      let tr = tracker () in
      let n_req = Sched.Instance.n_requests inst in
      let t0 = Unix.gettimeofday () in
      let next = ref 0 in
      (* Submit up to [k] more requests, chunked into groups of at most
         [batch]; stops early when [total] is reached. *)
      let submit_up_to k =
        let rec go k =
          let len = min (min k batch) (total - !next) in
          if len <= 0 then Ok ()
          else
            let reqs =
              List.init len (fun _ ->
                  let r = inst.Sched.Instance.requests.(!next mod n_req) in
                  let alternatives, deadline = request_fields r in
                  let tag = !next in
                  incr next;
                  { Protocol.tag; alternatives; deadline })
            in
            let* () = submit_group conn tr reqs in
            go (k - len)
        in
        go k
      in
      let result =
        let* () = submit_up_to (min users total) in
        (* Each terminal frees a "user" slot.  Freed slots are refilled
           together: after the blocking read, already-buffered responses
           are absorbed first ([recv_opt ~timeout:0.] never touches the
           socket), so a burst of terminals becomes one batched refill
           instead of one send per response. *)
        let rec serve () =
          if tr.terminals >= total then Ok ()
          else
            match recv ~timeout:30.0 conn with
            | Error m -> Error m
            | Ok (Protocol.Error { message }) ->
              Error ("server error: " ^ message)
            | Ok msg ->
              let fresh = ref (if note tr msg then 1 else 0) in
              let rec absorb () =
                if batch > 1 then
                  match recv_opt ~timeout:0.0 conn with
                  | Ok (Some (Protocol.Error { message })) ->
                    Error ("server error: " ^ message)
                  | Ok (Some msg) ->
                    if note tr msg then incr fresh;
                    absorb ()
                  | Ok None -> Ok ()
                  | Error _ as e -> e
                else Ok ()
              in
              let* () = absorb () in
              let* () = submit_up_to !fresh in
              serve ()
        in
        let* () = serve () in
        let* () = send conn Protocol.Bye in
        Ok ()
      in
      let duration = Unix.gettimeofday () -. t0 in
      close conn;
      (match result with
       | Error m -> Error m
       | Ok () -> Ok (report_of tr ~submitted:!next ~duration))

let render_decisions report =
  let b = Buffer.create (32 * Array.length report.decisions) in
  Array.iter
    (fun (tag, outcome) ->
       (match outcome with
        | Got_scheduled { round; resource } ->
          Buffer.add_string b
            (Printf.sprintf "t%d sched@%d S%d" tag round resource)
        | Got_rejected reason ->
          Buffer.add_string b
            (Printf.sprintf "t%d rej %s" tag
               (Protocol.render_reject_reason reason))
        | Got_expired -> Buffer.add_string b (Printf.sprintf "t%d exp" tag));
       Buffer.add_char b '\n')
    report.decisions;
  Buffer.contents b
