(** Protocol client and load generator for the reqsched server.

    The connection type is a plain blocking socket with buffered line
    reads; the load generators drive it single-threaded, draining
    responses opportunistically between sends.  Ratio of use: the CLI's
    [reqsched load] wraps {!open_loop} / {!closed_loop}; the end-to-end
    tests use {!connect} / {!send} / {!recv} directly. *)

type t
(** A connected, greeted session ([hello]/[welcome] already done). *)

val connect : Server.addr -> client:string -> (t, string) result
(** Dial, send [Hello {client}] and wait (10s) for [Welcome]. *)

val send : t -> Protocol.client_msg -> (unit, string) result

val recv : ?timeout:float -> t -> (Protocol.server_msg, string) result
(** Next server message; [Error] on timeout (default 10s), parse
    failure, or connection loss. *)

val recv_opt :
  ?timeout:float -> t -> (Protocol.server_msg option, string) result
(** Like {!recv} but a lapsed timeout is [Ok None] — for polling. *)

val close : t -> unit
(** Idempotent. *)

(** {1 Load generation} *)

type outcome =
  | Got_scheduled of { round : int; resource : int }
  | Got_rejected of Protocol.reject_reason
  | Got_expired

type report = {
  submitted : int;
  scheduled : int;
  rejected : int;
  expired : int;
  duration : float;           (** wall-clock seconds for the whole run *)
  rtt : Prelude.Stats.t;      (** submit-to-terminal latency summary *)
  rtt_samples : float array;  (** raw latencies, submission order — feed
                                  to {!Prelude.Stats.quantile} *)
  decisions : (int * outcome) array;  (** sorted by tag *)
}

val open_loop :
  addr:Server.addr ->
  inst:Sched.Instance.t ->
  tick:[ `Manual | `Every of float ] ->
  ?batch:int ->
  ?client:string ->
  unit ->
  (report, string) result
(** Replay the instance's arrival schedule against the server.
    [`Manual] runs in lock-step — submit round [r]'s arrivals, send
    [tick], wait for the [round] ack — which against a manual-tick
    server makes scheduling decisions a deterministic function of the
    instance (byte-identical {!render_decisions} across runs).
    [`Every dt] paces rounds on the wall clock for interval-tick
    servers.  [batch] (default 1) chunks each round's arrivals into
    [batch]-long wire batches, preserving submission order — in manual
    mode decisions are byte-identical for every batch size.  Succeeds
    only once {e every} submitted tag has exactly one terminal
    response. *)

val closed_loop :
  addr:Server.addr ->
  inst:Sched.Instance.t ->
  users:int ->
  total:int ->
  ?batch:int ->
  ?client:string ->
  unit ->
  (report, string) result
(** [users] outstanding requests are kept in flight (each terminal
    response triggers the next submission) until [total] have been
    submitted and resolved, cycling through the instance's requests
    for alternatives/deadlines.  Tags are submission indices.
    [batch] (default 1) groups refills: buffered terminals are
    absorbed together and the freed slots resubmitted as one wire
    batch of at most [batch] requests. *)

val render_decisions : report -> string
(** One line per tag, sorted: ["t<tag> sched@<round> S<res>" | "t<tag>
    rej <reason>" | "t<tag> exp"].  Byte-comparable across replays. *)
